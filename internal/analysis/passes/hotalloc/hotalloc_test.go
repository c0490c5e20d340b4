package hotalloc_test

import (
	"testing"

	"procmine/internal/analysis/analysistest"
	"procmine/internal/analysis/passes/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer(), "a")
}
