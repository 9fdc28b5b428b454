package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/cluster"
)

// proc is one fleet process, started from a built binary and stopped by
// its PID.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// running tracks every started process so an interrupted run still stops
// them all.
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not interesting
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM (the servers drain and exit), then SIGKILL after a
// grace period, and returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
}

func stopAll() {
	running.Lock()
	var ps []*proc
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.Unlock()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// freePorts reserves n distinct free loopback ports. The listeners stay
// open until all n are chosen, so the same port is never handed out twice.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func loopbackURL(port int) string { return "http://127.0.0.1:" + strconv.Itoa(port) }

// referencePorts name the replicas of the reference deployment whose ring
// assignment every proxy fleet reproduces.
var referencePorts = []int{9101, 9102}

// fleetPorts returns free loopback ports for a fleet: the front first,
// then the replicas. The proxy's ring hashes replica URLs, ports included,
// so which landmarks share a replica would change with every port draw and
// add run-to-run noise unrelated to the code. Replica ports are therefore
// drawn until the ring splits the portfolio positions exactly as it does
// for the reference deployment; the shards are still the ring's own
// assignment for the URLs the fleet runs on.
func fleetPorts() ([]int, error) {
	want := partition(replicaURLs(referencePorts))
	for try := 0; try < 200; try++ {
		ports, err := freePorts(3)
		if err != nil {
			return nil, err
		}
		if partition(replicaURLs(ports[1:])) == want {
			return ports, nil
		}
	}
	return nil, fmt.Errorf("no free replica ports reproduce the reference ring assignment")
}

func replicaURLs(ports []int) []string {
	var out []string
	for _, p := range ports {
		out = append(out, loopbackURL(p))
	}
	return out
}

// partition describes a ring assignment of the portfolio positions as the
// sorted position sets of the replicas, e.g. "[0 2] [1 3]". Which replica
// holds which set does not matter: the replicas are identical processes.
func partition(replicas []string) string {
	owners := cluster.NewRing(replicas, 0).AssignPositions(portfolioK)
	var parts []string
	for _, r := range replicas {
		parts = append(parts, fmt.Sprint(owners[r]))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// fleet is one launched deployment of a workload.
type fleet struct {
	procs    []*proc
	front    string           // the proxy's URL, which the load generator talks to
	replicas []string         // rdserver URLs
	shards   map[string][]int // replica URL → landmark vertices it serves
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, p := range f.procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// deployment is what a fleet launch needs besides the workload.
type deployment struct {
	bin, dir  string
	graphPath string
	landmarks []int // the proxy's portfolio selection
}

// launch starts the workload's fleet, rdproxy in front of two rdserver
// replicas, and returns once every process answers /readyz with 200, with
// the time that took. The replica shards are the proxy's own ring
// assignment of its portfolio positions, computed in-process from the
// replica URLs.
func launch(ctx context.Context, w *workload, d deployment, tag string) (*fleet, time.Duration, error) {
	ports, err := fleetPorts()
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{shards: map[string][]int{}}
	common := []string{"-graph", d.graphPath, "-method", "bipush", "-index-mode", "exact", "-precond", w.precond}
	type spec struct {
		name string
		bin  string
		url  string
		args []string
	}
	var specs []spec
	f.replicas = []string{loopbackURL(ports[1]), loopbackURL(ports[2])}
	owners := cluster.NewRing(f.replicas, 0).AssignPositions(portfolioK)
	for i, r := range f.replicas {
		var lms []string
		for _, j := range owners[r] {
			f.shards[r] = append(f.shards[r], d.landmarks[j])
			lms = append(lms, strconv.Itoa(d.landmarks[j]))
		}
		args := append([]string{"-addr", strings.TrimPrefix(r, "http://"), "-landmarks", strings.Join(lms, ",")}, common...)
		specs = append(specs, spec{fmt.Sprintf("replica%d", i+1), "rdserver", r, args})
	}
	f.front = loopbackURL(ports[0])
	specs = append(specs, spec{"proxy", "rdproxy", f.front, []string{
		"-graph", d.graphPath, "-addr", strings.TrimPrefix(f.front, "http://"),
		"-replicas", strings.Join(f.replicas, ","), "-portfolio", strconv.Itoa(portfolioK),
		"-index-mode", "exact", "-cache", strconv.Itoa(proxyCache),
	}})
	start := time.Now()
	for _, s := range specs {
		p, err := startProc(s.name, filepath.Join(d.bin, s.bin), filepath.Join(d.dir, tag+"-"+s.name+".log"), s.args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		p.url = s.url
		f.procs = append(f.procs, p)
	}
	for _, p := range f.procs {
		if err := waitReady(ctx, p); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

// waitReady polls the process's /readyz until it answers 200.
func waitReady(ctx context.Context, p *proc) error {
	deadline := time.Now().Add(150 * time.Second)
	for {
		resp, err := probeClient.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready", p.name)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 150s", p.name)
		}
	}
}

// vars fetches a process's /debug/vars and flattens the landmarkrd.*
// metric blocks into counters named "<block>.<field>"; a histogram field
// contributes its count and sum as "<block>.<field>.count" and ".sum".
func vars(base string) (counters, error) {
	resp, err := probeClient.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("%s/debug/vars: %w", base, err)
	}
	return flattenVars(raw), nil
}

func flattenVars(raw map[string]json.RawMessage) counters {
	out := counters{}
	for name, msg := range raw {
		block, ok := strings.CutPrefix(name, "landmarkrd.")
		if !ok {
			continue
		}
		var fields map[string]any
		if json.Unmarshal(msg, &fields) != nil {
			continue // scalar vars such as landmarkrd.epoch
		}
		for k, v := range fields {
			switch v := v.(type) {
			case float64:
				out[block+"."+k] = v
			case map[string]any:
				for _, sub := range []string{"count", "sum"} {
					if x, ok := v[sub].(float64); ok {
						out[block+"."+k+"."+sub] = x
					}
				}
			}
		}
	}
	return out
}

// varsSum sums the counters of several processes.
func varsSum(urls []string) (counters, error) {
	var all []counters
	for _, u := range urls {
		c, err := vars(u)
		if err != nil {
			return nil, err
		}
		all = append(all, c)
	}
	return sum(all...), nil
}

// peakRSSMB sums the fleet processes' peak resident set (VmHWM), in MiB.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

func vmHWM(pid int) (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// selectLandmarks repeats the proxy's portfolio selection (rdproxy and
// rdserver both build with seed 1 and the default strategy).
func selectLandmarks(g *landmarkrd.Graph) ([]int, error) {
	var strat landmarkrd.Strategy
	return landmarkrd.SelectPortfolioLandmarks(g, portfolioK, strat, 1)
}
