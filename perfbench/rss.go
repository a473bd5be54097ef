package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
)

// The resident-set figures come from Linux's per-process high-water mark
// (VmHWM in /proc/self/status, the value getrusage reports as ru_maxrss),
// which writing "5" to /proc/self/clear_refs sets back to the current
// resident set. peak_rss_mb is the median mark of a few isolated windows
// rather than one mark over the whole run: a whole-run mark is the largest
// of a run's garbage-collector and scavenger phases and moved by a third
// between runs of the same code, while an isolated window holds the
// working set the solver needs.

// hwmMB returns the process's resident high-water mark in MB.
func hwmMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseHWM(status)
}

// parseHWM reads the VmHWM line of a /proc/<pid>/status file, in MB.
func parseHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, ok := bytes.CutSuffix(bytes.TrimSpace(rest), []byte("kB"))
		if !ok {
			return 0, fmt.Errorf("VmHWM line %q has no kB unit", sc.Text())
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(kb)), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM line %q: %w", sc.Text(), err)
		}
		return v / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in process status")
}

// resetHWM sets the resident high-water mark back to the current resident
// set.
func resetHWM() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// residentPeak runs op reps times outside the timed loop. Each run
// starts from a resident set trimmed by debug.FreeOSMemory with the
// high-water mark reset, so its mark is what op itself needs on top of the
// process's live state. It returns the median and the largest mark in MB.
func residentPeak(reps int, op func(rep int) error) (med, largest float64, err error) {
	var peaks []float64
	for k := 0; k < reps; k++ {
		debug.FreeOSMemory()
		if err := resetHWM(); err != nil {
			return 0, 0, err
		}
		if err := op(k); err != nil {
			return 0, 0, err
		}
		v, err := hwmMB()
		if err != nil {
			return 0, 0, err
		}
		peaks = append(peaks, v)
	}
	return median(peaks), maxOf(peaks), nil
}
