package core

// ParityLogs exposes the parity fixture family (clean, swapped, dropped,
// spurious, cyclic) to the external reference-oracle test.
var ParityLogs = parityLogs
