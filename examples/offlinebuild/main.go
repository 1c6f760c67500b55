// Offline build workflow: construct FESIA sets once, persist them with
// checksummed, atomically-written snapshots, and load them in a query
// process — the deployment model the paper's evaluation assumes ("the data
// structure of our approach is built offline", Section VII-A).
//
// Run with:
//
//	go run ./examples/offlinebuild
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fesia"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "offlinebuild:", err)
	os.Exit(1)
}

func main() {
	dir, err := os.MkdirTemp("", "fesia-offline")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	// --- Offline: build and persist a large set. ---
	rng := rand.New(rand.NewSource(1))
	elems := make([]uint32, 1_000_000)
	for i := range elems {
		elems[i] = rng.Uint32()
	}
	start := time.Now()
	set := fesia.MustBuild(elems, fesia.WithSeed(42))
	buildTime := time.Since(start)

	// WriteSetFile writes through a temp file, fsyncs, and renames: a crash
	// mid-write can never leave a truncated snapshot at this path.
	path := filepath.Join(dir, "set.fesia")
	if err := fesia.WriteSetFile(path, set); err != nil {
		fail(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		fail(err)
	}
	fmt.Printf("offline: built %d elements in %v, snapshot %d bytes (%.1f bytes/element)\n",
		set.Len(), buildTime.Round(time.Millisecond), info.Size(),
		float64(info.Size())/float64(set.Len()))

	// A whole corpus (arena-built batch) ships as ONE file with a trailing
	// whole-file checksum.
	lists := make([][]uint32, 64)
	for i := range lists {
		lists[i] = elems[i*4096 : (i+1)*4096]
	}
	corpus, err := fesia.BuildBatch(lists, fesia.WithSeed(42))
	if err != nil {
		fail(err)
	}
	corpusPath := filepath.Join(dir, "corpus.fesia")
	if err := fesia.WriteCorpusFile(corpusPath, corpus); err != nil {
		fail(err)
	}

	// --- Online: load and query. ---
	start = time.Now()
	loaded, err := fesia.ReadSetFile(path)
	if err != nil {
		fail(err)
	}
	fmt.Printf("online: loaded and validated in %v\n", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	corpusLoaded, err := fesia.ReadCorpusFile(corpusPath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("online: corpus of %d sets loaded in %v\n",
		len(corpusLoaded), time.Since(start).Round(time.Millisecond))

	// Query with a deadline, the serving pattern: a runaway intersection is
	// cut off at the request budget instead of holding the connection.
	probe := fesia.MustBuild(elems[:5000], fesia.WithSeed(42))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ex := fesia.NewExecutor()
	start = time.Now()
	common, err := ex.IntersectCountCtx(ctx, loaded, probe)
	if err != nil {
		fail(err)
	}
	fmt.Printf("query: |loaded ∩ probe| = %d in %v (adaptive strategy: skewed -> hash probe)\n",
		common, time.Since(start).Round(time.Microsecond))

	counts := make([]int, len(corpusLoaded))
	if err := ex.IntersectCountManyCtx(ctx, probe, corpusLoaded, counts); err != nil {
		fail(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Printf("query: probe vs %d corpus sets, %d total matches\n", len(counts), total)

	// Corruption is detected at load time, not at query time: the snapshot
	// carries a CRC32C, so any single flipped byte fails the load.
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		fail(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF
	if _, err := fesia.ReadSet(bytes.NewReader(raw)); err != nil {
		fmt.Printf("corruption check: %v\n", err)
	} else {
		fail(fmt.Errorf("corrupted snapshot was accepted"))
	}
}
