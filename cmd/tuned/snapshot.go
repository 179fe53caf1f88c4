package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"indextune/internal/jobs"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// snapshotLoad records one boot-time snapshot load attempt, surfaced on the
// GET /stats endpoint so operators can see what warmed the caches. A failed
// load (stale fingerprint, corruption, unknown workload) never blocks boot —
// the oracle simply starts cold.
type snapshotLoad struct {
	Workload string `json:"workload"`
	File     string `json:"file"`
	Entries  int    `json:"entries"`
	Error    string `json:"error,omitempty"`
}

// snapFile maps a workload display name ("TPC-H") to its snapshot file name
// ("tpch.snap"): the name as workload.NormalizeName canonicalizes it, which
// workload.ByName resolves back.
func snapFile(name string) string {
	return workload.NormalizeName(name) + ".snap"
}

// loadSnapshots scans dir for *.snap files, warms the matching shared oracle
// for each, and seeds it from the snapshot. Every outcome is logged and
// recorded; nothing here is fatal.
func loadSnapshots(m *jobs.Manager, dir string, stdout, stderr io.Writer) []snapshotLoad {
	if dir == "" {
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintln(stderr, "tuned: cache-snapshot-dir:", err)
		}
		return nil
	}
	var out []snapshotLoad
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".snap") {
			continue
		}
		rec := snapshotLoad{
			Workload: strings.TrimSuffix(name, ".snap"),
			File:     filepath.Join(dir, name),
		}
		rec.Entries, rec.Error = loadOne(m, rec.Workload, rec.File)
		if rec.Error != "" {
			fmt.Fprintf(stderr, "tuned: snapshot %s: %s\n", rec.File, rec.Error)
		} else {
			fmt.Fprintf(stdout, "tuned: snapshot %s: warmed %s with %d cached costs\n",
				rec.File, rec.Workload, rec.Entries)
		}
		out = append(out, rec)
	}
	return out
}

// loadOne warms one oracle from one snapshot file.
func loadOne(m *jobs.Manager, wname, path string) (int, string) {
	opt, w, err := m.WarmOracle(wname)
	if err != nil {
		return 0, err.Error()
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err.Error()
	}
	defer f.Close()
	n, err := opt.LoadSnapshot(f, w)
	if err != nil {
		return n, err.Error()
	}
	return n, ""
}

// saveSnapshots writes one snapshot per shared oracle into dir during the
// drain, via temp-file + rename so a crash mid-write never leaves a torn
// snapshot where the next boot would read it.
func saveSnapshots(m *jobs.Manager, dir string, stdout, stderr io.Writer) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "tuned: cache-snapshot-dir:", err)
		return
	}
	m.EachOracle(func(name string, opt *whatif.Optimizer, w *workload.Workload) {
		path := filepath.Join(dir, snapFile(name))
		if err := saveOne(opt, w, path); err != nil {
			fmt.Fprintf(stderr, "tuned: snapshot %s: %v\n", path, err)
			return
		}
		fmt.Fprintf(stdout, "tuned: snapshot %s: saved %s cache\n", path, name)
	})
}

// saveOne writes one oracle's snapshot atomically: the bytes are synced to
// stable storage before the rename publishes them, so a crash leaves either
// the previous snapshot or the complete new one.
func saveOne(opt *whatif.Optimizer, w *workload.Workload, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := opt.WriteSnapshot(f, w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
