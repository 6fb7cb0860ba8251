package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile is one percentile of a sample set together with the support
// behind it: how many samples there were and how many lie above it.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// samples.
func percentile(samples []float64, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{}
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	v := samples[rank]
	beyond := n - sort.Search(n, func(i int) bool { return samples[i] > v })
	return quantile{Value: v, N: n, Beyond: beyond}
}

// supported reports whether a percentile has the ten samples beyond it
// that a reported tail percentile needs.
func (q quantile) supported() bool { return q.Beyond >= 10 }

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally is a run's failure accounting: every operation attempted
// (batch sent, experiment replayed) and every output check counts once,
// and a failed, refused or retried operation or a failed check counts
// as failed.
type tally struct {
	attempted, failed int64
	notes             []string
}

// op accounts one operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.notes = append(t.notes, err.Error())
	}
}

// ops accounts n operations of which bad failed or were retried.
func (t *tally) ops(n, bad int64, what string) {
	t.attempted += n
	if bad > 0 {
		t.failed += bad
		t.notes = append(t.notes, fmt.Sprintf("%d of %d %s failed or were retried", bad, n, what))
	}
}

// check accounts one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// failPct is failed operations and checks per hundred attempted.
func (t *tally) failPct() float64 {
	if t.attempted == 0 {
		return 100
	}
	return 100 * float64(t.failed) / float64(t.attempted)
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine is the stamp stored with every result: a figure is only
// comparable with figures from the same kind of machine.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SHA        string `json:"sha"`
}

func stampMachine(root string) machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		SHA:        sourceSHA(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceSHA names the code under test: the git commit when the tree is
// a repository, otherwise a digest of every Go source and module file
// (benchmark checkouts are plain file trees).
func sourceSHA(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// sliceQuantiles cuts samples into n consecutive, equally long slices
// of the time from 0 to the latest at, by the time each sample was
// taken at, and returns every slice's p-quantile in time order.
func sliceQuantiles(samples, at []float64, n int, p float64) []quantile {
	span := 0.0
	for _, t := range at {
		span = max(span, t)
	}
	if len(samples) == 0 || span <= 0 {
		return nil
	}
	bySlice := make([][]float64, n)
	for i, v := range samples {
		k := min(int(at[i]/span*float64(n)), n-1)
		bySlice[k] = append(bySlice[k], v)
	}
	out := make([]quantile, n)
	for k, s := range bySlice {
		out[k] = percentile(s, p)
	}
	return out
}
