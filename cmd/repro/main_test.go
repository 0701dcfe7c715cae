package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run("", true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run("fig1", false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run("nope", false, ""); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestRunWithOutputDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if err := run("table1", false, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil || len(data) == 0 {
		t.Fatalf("output file: %v", err)
	}
}

// TestResultsReproduce: every experiment regenerates its committed
// results/<id>.txt byte for byte, and results/ holds nothing else, so a
// change that moves a paper table fails here.
func TestResultsReproduce(t *testing.T) {
	dir := t.TempDir()
	if err := run("all", false, dir); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadDir(filepath.Join("..", "..", "results"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(committed) {
		t.Errorf("repro writes %d files, results/ holds %d", len(fresh), len(committed))
	}
	for _, e := range committed {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("results/%s: no experiment writes it: %v", e.Name(), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("results/%s differs from a fresh run:\n%s", e.Name(), got)
		}
	}
}
