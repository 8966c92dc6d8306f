// Command targad trains a TargAD model on CSV data and scores a CSV
// of test instances — the quick adoption path for using the library on
// your own tabular data.
//
// The training data comes in two files: -labeled holds labeled target
// anomalies with the anomaly type index (0..m-1) in the FIRST column
// and features after it; -unlabeled holds raw feature rows. The test
// file (-score) holds raw feature rows; one score per row is written
// to stdout (or -o), higher = more likely a target anomaly.
//
// Example:
//
//	targad -labeled labeled.csv -unlabeled pool.csv -score test.csv \
//	       -alpha 0.05 -k 0 -epochs 30
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"targad/internal/atomicfile"
	"targad/internal/buildinfo"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/mat"
)

func main() {
	var (
		labeledPath   = flag.String("labeled", "", "CSV of labeled target anomalies (type index in first column)")
		unlabeledPath = flag.String("unlabeled", "", "CSV of unlabeled instances (features only)")
		scorePath     = flag.String("score", "", "CSV of instances to score (features only)")
		outPath       = flag.String("o", "", "write scores here instead of stdout")
		hasHeader     = flag.Bool("header", false, "CSV files have a header row")
		alpha         = flag.Float64("alpha", 0.05, "candidate-selection threshold (top fraction by reconstruction error)")
		k             = flag.Int("k", 0, "number of normal clusters (0 = elbow method)")
		eta           = flag.Float64("eta", 1, "autoencoder trade-off eta")
		lambda1       = flag.Float64("lambda1", 0.1, "weight of L_OE")
		lambda2       = flag.Float64("lambda2", 1, "weight of L_RE")
		epochs        = flag.Int("epochs", 30, "training epochs for autoencoders and classifier")
		lr            = flag.Float64("lr", 1e-3, "learning rate for both stages")
		seed          = flag.Int64("seed", 1, "random seed")
		savePath      = flag.String("save", "", "write the trained model here")
		loadPath      = flag.String("load", "", "load a trained model instead of training (-labeled/-unlabeled ignored)")
		normalize     = flag.Bool("normalize", true, "min-max scale features using the training data's ranges")
		timeout       = flag.Duration("timeout", 0, "abort training/scoring after this long (e.g. 10m); 0 disables")
		checkpoint    = flag.String("checkpoint", "", "checkpoint file for crash-safe training; an interrupted run rerun with the same flags resumes exactly where it stopped")
		showVersion   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("targad %s\n", buildinfo.Version())
		return
	}
	if *scorePath == "" || (*loadPath == "" && (*labeledPath == "" || *unlabeledPath == "")) {
		fmt.Fprintln(os.Stderr, "targad: need -score plus either -load or both -labeled and -unlabeled")
		flag.Usage()
		os.Exit(2)
	}

	// ^C/SIGTERM and -timeout cancel cooperatively at the next epoch
	// boundary; with -checkpoint set, the progress made so far is on
	// disk and the same command resumes it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *loadPath != "" {
		scoreWithSavedModel(ctx, *loadPath, *scorePath, *outPath, *hasHeader)
		return
	}

	train, err := dataset.LoadTrainCSVs(*labeledPath, *unlabeledPath, *hasHeader)
	if err != nil {
		fatal(err)
	}
	test := loadCSV(*scorePath, *hasHeader)

	if *normalize {
		pool := dataset.MustVStack(train.Unlabeled, train.Labeled)
		scaler, err := dataset.FitMinMax(pool)
		if err != nil {
			fatal(err)
		}
		for _, m := range []*mat.Matrix{train.Labeled, train.Unlabeled, test} {
			if err := scaler.Transform(m); err != nil {
				fatal(err)
			}
		}
	}

	cfg := core.DefaultConfig()
	cfg.Alpha = *alpha
	cfg.K = *k
	cfg.Eta = *eta
	cfg.Lambda1 = *lambda1
	cfg.Lambda2 = *lambda2
	cfg.AEEpochs = *epochs
	cfg.ClfEpochs = *epochs
	cfg.AELR = *lr
	cfg.ClfLR = *lr
	cfg.Checkpoint = core.CheckpointConfig{Path: *checkpoint}
	model := core.New(cfg, *seed)

	fmt.Fprintf(os.Stderr, "targad: training on %d labeled (m=%d types) + %d unlabeled instances, %d features\n",
		train.Labeled.Rows, train.NumTargetTypes, train.Unlabeled.Rows, train.Unlabeled.Cols)
	start := time.Now()
	if err := model.Fit(ctx, train); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "targad: interrupted after %v: %v\n", time.Since(start).Round(time.Millisecond), err)
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "targad: progress saved to %s; rerun the same command to resume\n", *checkpoint)
			}
			os.Exit(130)
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "targad: trained with k=%d normal clusters\n", model.NumNormalClusters())

	if *savePath != "" {
		if err := atomicfile.Write(*savePath, model.Save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "targad: model saved to %s\n", *savePath)
	}

	scores, err := model.Score(ctx, test)
	if err != nil {
		fatal(err)
	}
	if err := writeScoresTo(*outPath, scores); err != nil {
		fatal(err)
	}
}

// scoreWithSavedModel loads a serialized model and scores a CSV.
// Note: a saved model expects inputs in the same normalized space it
// was trained in; pass pre-normalized features when using -load.
func scoreWithSavedModel(ctx context.Context, modelPath, scorePath, outPath string, header bool) {
	f, err := os.Open(modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := core.Load(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fatal(err)
	}
	test := loadCSV(scorePath, header)
	scores, err := model.Score(ctx, test)
	if err != nil {
		fatal(err)
	}
	if err := writeScoresTo(outPath, scores); err != nil {
		fatal(err)
	}
}

// writeScoresTo writes scores to the file at path, or to stdout when
// path is empty, and reports any write, flush or close failure.
func writeScoresTo(path string, scores []float64) error {
	if path == "" {
		return writeScores(os.Stdout, scores)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Errors from the file already name its path.
	if err := writeScores(f, scores); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeScores writes one full-precision score per line. The
// bufio.Writer keeps its first write error and Flush returns it.
func writeScores(out io.Writer, scores []float64) error {
	w := bufio.NewWriter(out)
	for _, s := range scores {
		w.WriteString(strconv.FormatFloat(s, 'g', -1, 64))
		w.WriteByte('\n')
	}
	return w.Flush()
}

func loadCSV(path string, header bool) *mat.Matrix {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m, _, err := dataset.LoadCSV(bufio.NewReader(f), header)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "targad:", err)
	os.Exit(1)
}
