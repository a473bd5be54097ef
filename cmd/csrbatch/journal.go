package main

// Crash-safe journaling for csrbatch runs (-journal / -resume). Layout and
// durability contract live in internal/encoding (journal.go, checkpoint.go);
// this file is the batch-loop integration: which instances to skip, which
// checkpoints to attach, and the completion sequence (result file renamed
// into place BEFORE its manifest line is appended, so a manifested instance
// always has a whole, readable result — the invariant -resume trusts).

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	fragalign "repro"
	"repro/internal/encoding"
)

// pending is one instance's place in the batch pipeline.
type pending struct {
	ticket   *fragalign.BatchTicket
	index    int
	name     string
	err      error                      // submission-time failure (deadline, memory budget)
	stored   *encoding.ResultRecord     // completed on a previous run
	ckpt     *encoding.CheckpointWriter // live solve checkpoint, nil without -journal
	ckptPath string
}

// journal is one run's handle on a -journal directory.
type journal struct {
	dir   string
	algo  string
	fp    string // flag fingerprint pinning the accepted-op trajectory
	every int    // checkpoint fsync cadence
	man   *encoding.ManifestWriter
	done  map[int]encoding.ManifestEntry // manifested on a previous run
}

// openJournal prepares dir for a journaled run. A fresh run (resume false)
// refuses a directory that already holds completions — silently overwriting
// a crashed run's journal is exactly the data loss journaling exists to
// prevent; pass -resume or point at a fresh directory.
func openJournal(dir, algo, fp string, resume bool, every int) (*journal, error) {
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "ckpt")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	manPath := filepath.Join(dir, "manifest.jsonl")
	jr := &journal{dir: dir, algo: algo, fp: fp, every: every,
		done: make(map[int]encoding.ManifestEntry)}
	m, err := encoding.LoadManifest(manPath)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", dir, err)
	}
	if !resume && len(m.Entries) > 0 {
		return nil, fmt.Errorf("journal %s already holds %d completed instances; pass -resume to continue it or use a fresh directory", dir, len(m.Entries))
	}
	if resume {
		for _, e := range m.Entries {
			jr.done[e.Index] = e
		}
	}
	jr.man, err = encoding.OpenManifest(manPath)
	if err != nil {
		return nil, err
	}
	return jr, nil
}

func (jr *journal) close() {
	if jr.man != nil {
		jr.man.Close()
	}
}

// storedRecord returns instance index's record from a previous run, nil when
// the instance was never manifested. A manifested entry whose name does not
// match the re-fed input fails the run: the journal belongs to different
// data, and "resuming" it would emit records for instances never solved.
func (jr *journal) storedRecord(index int, name string) (*encoding.ResultRecord, error) {
	e, ok := jr.done[index]
	if !ok {
		return nil, nil
	}
	if e.Name != name {
		return nil, fmt.Errorf("journal %s: instance %d is %q in the manifest but %q in the input — wrong input for this journal", jr.dir, index, e.Name, name)
	}
	data, err := os.ReadFile(filepath.Join(jr.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("journal %s: manifested result missing: %w", jr.dir, err)
	}
	var rec *encoding.ResultRecord
	if err := encoding.ReadJSONLResults(bytes.NewReader(data), func(r encoding.ResultRecord) error {
		rec = &r
		return nil
	}); err != nil || rec == nil {
		return nil, fmt.Errorf("journal %s: unreadable result %s: %v", jr.dir, e.File, err)
	}
	return rec, nil
}

// attachCheckpoint opens instance index's durable checkpoint and returns the
// submission options that wire it in: a compatible log left by a crashed
// run fast-forwards the solve (WithResume) and is appended to from there;
// anything else — no file, torn header, corrupt records, or a header from
// different flags — starts a fresh log.
func (jr *journal) attachCheckpoint(index int, name string) (*encoding.CheckpointWriter, string, []fragalign.Option, error) {
	path := filepath.Join(jr.dir, "ckpt", fmt.Sprintf("%06d.ckpt", index))
	hdr := encoding.CheckpointHeader{Index: index, Name: name, Algo: jr.algo, Fingerprint: jr.fp}
	if ck, err := encoding.LoadCheckpoint(path); err == nil &&
		ck.Header.Index == index && ck.Header.Fingerprint == jr.fp {
		w, rerr := encoding.ResumeCheckpoint(path, ck)
		if rerr != nil {
			return nil, "", nil, rerr
		}
		w.SetFlushEvery(jr.every)
		return w, path, []fragalign.Option{fragalign.WithCheckpoint(w), fragalign.WithResume(ck.Ops)}, nil
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "csrbatch: journal %s: checkpoint %06d unusable (%v) — re-solving from scratch\n", jr.dir, index, err)
	}
	w, err := encoding.CreateCheckpoint(path, hdr)
	if err != nil {
		return nil, "", nil, err
	}
	w.SetFlushEvery(jr.every)
	return w, path, []fragalign.Option{fragalign.WithCheckpoint(w)}, nil
}

// complete runs an instance's durability sequence once its record is final:
// close the checkpoint, atomically write the result file, fsync its manifest
// line, drop the checkpoint. Failed records are NOT manifested — a -resume
// retries them (transient deadline failures should not be pinned forever) —
// and keep their checkpoint for the retry. A journal write failure is fatal:
// continuing would stream results the journal does not back.
func (jr *journal) complete(p pending, rec *encoding.ResultRecord) {
	if p.ckpt != nil {
		p.ckpt.Close()
	}
	if rec.Error != "" {
		return
	}
	var buf bytes.Buffer
	if err := encoding.WriteJSONLResult(&buf, rec); err != nil {
		jr.fatal(err)
	}
	rel := filepath.Join("results", fmt.Sprintf("%06d.json", p.index))
	if err := encoding.WriteFileAtomic(filepath.Join(jr.dir, rel), buf.Bytes()); err != nil {
		jr.fatal(err)
	}
	if err := jr.man.Add(encoding.ManifestEntry{Index: p.index, Name: p.name, File: rel}); err != nil {
		jr.fatal(err)
	}
	if p.ckptPath != "" {
		os.Remove(p.ckptPath)
	}
}

func (jr *journal) fatal(err error) {
	fmt.Fprintf(os.Stderr, "csrbatch: journal %s: %v\n", jr.dir, err)
	os.Exit(1)
}
