package dataset

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"targad/internal/mat"
	"targad/internal/rng"
)

func validTrainSet() *TrainSet {
	labeled, _ := mat.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	unlabeled, _ := mat.FromRows([][]float64{{0.5, 0.6}, {0.7, 0.8}, {0.9, 1.0}})
	return &TrainSet{
		Labeled:        labeled,
		LabeledType:    []int{0, 1},
		NumTargetTypes: 2,
		Unlabeled:      unlabeled,
		UnlabeledKind:  []Kind{KindNormal, KindNormal, KindNonTarget},
	}
}

func TestTrainSetValidate(t *testing.T) {
	ts := validTrainSet()
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if ts.Dim() != 2 {
		t.Fatalf("Dim = %d", ts.Dim())
	}

	bad := validTrainSet()
	bad.LabeledType = []int{0}
	if err := bad.Validate(); err == nil {
		t.Fatal("label count mismatch must error")
	}
	bad = validTrainSet()
	bad.LabeledType = []int{0, 5}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range type must error")
	}
	bad = validTrainSet()
	bad.NumTargetTypes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero target types must error")
	}
	bad = validTrainSet()
	bad.UnlabeledKind = []Kind{KindNormal}
	if err := bad.Validate(); err == nil {
		t.Fatal("kind count mismatch must error")
	}
	bad = validTrainSet()
	bad.Labeled = mat.New(2, 3)
	if err := bad.Validate(); err == nil {
		t.Fatal("dimensionality mismatch must error")
	}
	bad = validTrainSet()
	bad.Unlabeled = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil unlabeled must error")
	}
}

func TestEvalSetHelpers(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{1}, {2}, {3}, {4}})
	e := &EvalSet{
		X:    x,
		Kind: []Kind{KindNormal, KindTarget, KindNonTarget, KindTarget},
		Type: []int{0, 1, 0, 0},
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	labels := e.TargetLabels()
	want := []bool{false, true, false, true}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("TargetLabels = %v", labels)
		}
	}
	n, tg, nt := e.Counts()
	if n != 1 || tg != 2 || nt != 1 {
		t.Fatalf("Counts = %d,%d,%d", n, tg, nt)
	}
	bad := &EvalSet{X: x, Kind: []Kind{KindNormal}}
	if err := bad.Validate(); err == nil {
		t.Fatal("kind mismatch must error")
	}
}

func TestKindString(t *testing.T) {
	if KindNormal.String() != "normal" || KindTarget.String() != "target" ||
		KindNonTarget.String() != "non-target" {
		t.Fatal("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown Kind should embed value")
	}
}

func TestMinMaxScaler(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{0, 10, 5}, {4, 20, 5}, {2, 15, 5}})
	s, err := FitMinMax(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transform(x); err != nil {
		t.Fatal(err)
	}
	if x.At(0, 0) != 0 || x.At(1, 0) != 1 || x.At(2, 0) != 0.5 {
		t.Fatalf("scaled col0 = %v %v %v", x.At(0, 0), x.At(1, 0), x.At(2, 0))
	}
	// Constant feature maps to 0.
	for i := 0; i < 3; i++ {
		if x.At(i, 2) != 0 {
			t.Fatalf("constant feature must map to 0, got %v", x.At(i, 2))
		}
	}
	// Out-of-range test data clamps.
	test, _ := mat.FromRows([][]float64{{-5, 100, 9}})
	if err := s.Transform(test); err != nil {
		t.Fatal(err)
	}
	if test.At(0, 0) != 0 || test.At(0, 1) != 1 {
		t.Fatalf("clamping failed: %v", test.Row(0))
	}
	if _, err := FitMinMax(mat.New(0, 3)); err == nil {
		t.Fatal("empty fit must error")
	}
	if err := s.Transform(mat.New(1, 2)); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestMinMaxScalerPropertyRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		x := mat.New(20, 4)
		r.FillNormal(x.Data, 0, 100)
		s, err := FitMinMax(x)
		if err != nil {
			return false
		}
		if err := s.Transform(x); err != nil {
			return false
		}
		for _, v := range x.Data {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVStack(t *testing.T) {
	a, _ := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := VStack(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows != 4 || v.At(3, 1) != 4 {
		t.Fatalf("VStack = %v", v.Data)
	}
	if _, err := VStack(a, mat.New(1, 3)); err == nil {
		t.Fatal("col mismatch must error")
	}
	// Zero-row operands are skipped.
	v2, err := VStack(mat.New(0, 0), a)
	if err != nil || v2.Rows != 2 {
		t.Fatalf("VStack with empty = %v, %v", v2, err)
	}
	empty, err := VStack()
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty VStack = %v, %v", empty, err)
	}
}

func TestMustVStackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustVStack must panic on mismatch")
		}
	}()
	MustVStack(mat.New(1, 2), mat.New(1, 3))
}

func TestCSVRoundTrip(t *testing.T) {
	m, _ := mat.FromRows([][]float64{{1.5, -2}, {0.25, 1e-9}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	got, header, err := LoadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if header[0] != "a" || header[1] != "b" {
		t.Fatalf("header = %v", header)
	}
	for i := range m.Data {
		if m.Data[i] != got.Data[i] {
			t.Fatalf("roundtrip mismatch: %v vs %v", m.Data, got.Data)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := LoadCSV(strings.NewReader("1,notanumber\n"), false); err == nil {
		t.Fatal("bad float must error")
	}
	if _, _, err := LoadCSV(strings.NewReader("1,2\n3\n"), false); err == nil {
		t.Fatal("ragged CSV must error")
	}
	m := mat.New(1, 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, []string{"only-one"}); err == nil {
		t.Fatal("header width mismatch must error")
	}
}

func TestBundleValidate(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{0.1, 0.2}})
	b := &Bundle{
		Name:  "t",
		Train: validTrainSet(),
		Val:   &EvalSet{X: x, Kind: []Kind{KindNormal}},
		Test:  &EvalSet{X: x, Kind: []Kind{KindTarget}},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.Val = &EvalSet{X: x, Kind: nil}
	if err := b.Validate(); err == nil {
		t.Fatal("invalid val split must propagate")
	}
}
