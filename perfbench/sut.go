package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sut is one espice-serve process, the system under test of the wire
// workloads, started from the binary built from the checkout.
type sut struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec until the "listening on" line

	final chan []byte // the drained "final" stats document
	done  chan error  // cmd.Wait, once stderr is fully read

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

// startSUT executes bin and waits for its "listening on" line.
func startSUT(bin string, args []string, timeout time.Duration) (*sut, error) {
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &sut{cmd: cmd, final: make(chan []byte, 1), done: make(chan error, 1)}
	listening := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.readStderr(stderr, listening)
		s.done <- cmd.Wait()
	}()
	select {
	case addr := <-listening:
		s.setup = time.Since(start)
		s.addr = addr
		return s, nil
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("espice-serve exited before listening (%v): %s", err, s.lastLines())
	case <-time.After(timeout):
		_, _ = s.stop(0)
		return nil, fmt.Errorf("espice-serve not listening after %v: %s", timeout, s.lastLines())
	}
}

// readStderr scans the server log for the two lines the benchmark
// reads: the listen address and the final stats document.
func (s *sut) readStderr(r io.Reader, listening chan<- string) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		if line != "" {
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 8 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
		if rest, ok := strings.CutPrefix(line, "espice-serve: listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			listening <- addr
		}
		if rest, ok := strings.CutPrefix(line, "espice-serve: final "); ok {
			s.final <- []byte(rest)
		}
		if err != nil {
			return
		}
	}
}

func (s *sut) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// exitStats is what the operating system reports for an exited server.
type exitStats struct {
	CPU     time.Duration // user + system
	PeakRSS int64         // bytes
}

// stop sends SIGTERM, waits up to grace for a clean drain (0 kills at
// once), and returns the final stats document (nil when none was
// printed) and the process's resource usage.
func (s *sut) stop(grace time.Duration) ([]byte, error) {
	sig := os.Signal(syscall.SIGTERM)
	if grace == 0 {
		sig = os.Kill
	}
	_ = s.cmd.Process.Signal(sig) // fails only if already exited; Wait reports that
	var err error
	select {
	case err = <-s.done:
	case <-time.After(grace):
		_ = s.cmd.Process.Kill()
		<-s.done
		err = fmt.Errorf("espice-serve did not drain within %v", grace)
	}
	var doc []byte
	select {
	case doc = <-s.final:
	default:
	}
	if err != nil && !errors.Is(err, os.ErrProcessDone) {
		return doc, fmt.Errorf("espice-serve: %v: %s", err, s.lastLines())
	}
	if doc == nil {
		return nil, fmt.Errorf("espice-serve exited without a final stats line: %s", s.lastLines())
	}
	return doc, nil
}

// processUsage is an exited process's resource usage.
func processUsage(ps *os.ProcessState) exitStats {
	if ps == nil {
		return exitStats{}
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return exitStats{}
	}
	return exitStats{
		CPU:     ps.UserTime() + ps.SystemTime(),
		PeakRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a running process's user+system CPU so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after ")".
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// serverDoc is the part of the espice-serve stats document the
// benchmark reads.
type serverDoc struct {
	Submitted     uint64     `json:"submitted"`
	Processed     uint64     `json:"processed"`
	Memberships   uint64     `json:"memberships"`
	Shed          uint64     `json:"shed"`
	ComplexEvents uint64     `json:"complex_events"`
	Ledger        *seqLedger `json:"ledger"`
}

func parseDoc(b []byte) (serverDoc, error) {
	var d serverDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("stats document: %w", err)
	}
	return d, nil
}
