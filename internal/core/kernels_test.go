package core

import (
	"bytes"
	"context"
	"testing"

	"targad/internal/dataset/synth"
	"targad/internal/mat"
)

// TestFitKernelSwapIdentical fits one model twice — on the kernels
// selected at init (the f64 assembly on AVX2 hardware) and on the
// portable Go kernels — and requires byte-identical Save output. The
// UNSW-shaped data (d=196, default hidden widths, elbow over k = 2–8)
// drives every f64 product and the k-means assignment through their
// blocked and tail paths, so this is the bitwise contract end to end.
// Under the noasm tag or TARGAD_NOSIMD=1 both fits run the Go kernels
// and the test checks Fit's determinism alone.
func TestFitKernelSwapIdentical(t *testing.T) {
	b, err := synth.Generate(synth.UNSWNB15(), synth.Options{Scale: 0.01, Seed: 3, LabeledPerType: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AEEpochs = 2
	cfg.ClfEpochs = 3
	fit := func() []byte {
		t.Helper()
		m := New(cfg, 7)
		if err := m.Fit(context.Background(), b.Train); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	active := fit()
	restore := mat.UsePortableKernels()
	portable := fit()
	restore()
	if !bytes.Equal(active, portable) {
		i := 0
		for i < len(active) && i < len(portable) && active[i] == portable[i] {
			i++
		}
		t.Fatalf("kernel %s and portable Go fits save differently: first difference at byte %d of %d/%d",
			mat.KernelName(), i, len(active), len(portable))
	}
}
