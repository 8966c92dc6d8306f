package main

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"targad/internal/experiments"
)

// failAfter is an io.Writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

func tinyConfig() experiments.RunConfig {
	rc := experiments.Fast()
	rc.Scale = 0.012
	return rc
}

func TestRunToReportsWriteFailure(t *testing.T) {
	for _, n := range []int{0, 100} {
		err := runTo(context.Background(), "table1", tinyConfig(), &failAfter{n: n}, nil)
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing after %d bytes: got %v, want the write error", n, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := runTo(context.Background(), "table9", tinyConfig(), &bytes.Buffer{}, nil); err == nil {
		t.Fatal("an unknown experiment must be an error")
	}
}
