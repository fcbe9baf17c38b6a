package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds how long a server may take to print its "listening
// on" line (recovery of the largest estate included).
const readyTimeout = 90 * time.Second

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100
// on every Linux architecture the toolchain targets).
const clockTick = 10 * time.Millisecond

// proc is one qfe-server or qfe-router subprocess.
type proc struct {
	name  string
	cmd   *exec.Cmd
	addr  string        // host:port from the "listening on" line
	ready time.Duration // exec to "listening on"

	readers  sync.WaitGroup
	mu       sync.Mutex
	logs     [][]byte // stderr lines, kept only when capturing
	tail     []string // last stderr lines, for error messages
	stopOnce sync.Once
	stopErr  error
}

// live tracks every started process so an aborted run still stops them.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// startProc execs bin and returns once it printed its "listening on" line.
// Readiness comes from the server itself, never from a sleep or a poll.
func startProc(name, bin string, args []string, capture bool) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()

	addrCh := make(chan string, 1) // one send at most, never blocks the reader
	p.readers.Add(2)
	go func() {
		defer p.readers.Done()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer p.readers.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			p.mu.Lock()
			if capture {
				p.logs = append(p.logs, append([]byte(nil), sc.Bytes()...))
			}
			p.tail = append(p.tail, sc.Text())
			if len(p.tail) > 8 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()

	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			p.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("%s exited before listening: %s", name, p.stderrTail())
		}
		p.ready = time.Since(start)
		p.addr = addr
		return p, nil
	case <-timer.C:
		p.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("%s not listening after %s: %s", name, readyTimeout, p.stderrTail())
	}
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// takeLogs returns and clears the captured stderr lines.
func (p *proc) takeLogs() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.logs
	p.logs = nil
	return l
}

// stop signals the process and waits until it has exited and its output
// is drained. SIGTERM lets qfe-server write its shutdown checkpoint; an
// error is returned if it then exits abnormally.
func (p *proc) stop(sig syscall.Signal) error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(sig)
		p.readers.Wait()
		err := p.cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		if err != nil && sig != syscall.SIGKILL {
			p.stopErr = fmt.Errorf("%s: %w (%s)", p.name, err, p.stderrTail())
		}
	})
	return p.stopErr
}

// killAll stops every process still running.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		_ = p.stop(syscall.SIGKILL)
	}
}

// statusKB reads a "<field>: N kB" line from /proc/<pid>/status.
func (p *proc) statusKB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s in /proc status", p.name, field)
}

// cpu is the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad cpu fields in /proc stat")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// scrapeMetrics reads the process's /metrics?format=json.
func (p *proc) scrapeMetrics(hc *http.Client) (scrape, error) {
	resp, err := hc.Get(p.url() + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", p.name, resp.StatusCode)
	}
	return parseScrape(data)
}
