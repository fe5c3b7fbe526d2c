package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the generator's concurrency: one process, min(nproc, 4)
// connections.
func conns() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// op is one request of the arrival table.
type op struct {
	query  bool
	tokens []string
	body   []byte
	due    time.Duration // offset from the phase start; 0 in a closed loop
}

// opResult is what came back. lat runs from the op's due time (open
// loop) or its send time (closed loop); lag is how late the generator
// itself sent it.
type opResult struct {
	op       *op
	status   int
	lat, lag time.Duration
	body     []byte
	coverage string
}

func (r *opResult) ok() bool { return r.status == http.StatusOK }

func tokensBody(tokens []string) []byte {
	b, err := json.Marshal(map[string][]string{"tokens": tokens})
	if err != nil {
		fatalf("marshal tokens: %v", err)
	}
	return b
}

// opSource deals out the arrival table from the seed: queries probe
// records drawn from the whole collection, adds consume fresh records
// in order so no two adds carry the same object.
type opSource struct {
	r       *rand.Rand
	records [][]string
	nextAdd int
}

// table builds n ops with the given query share; rate > 0 spaces them as
// a Poisson arrival process, rate == 0 leaves them due immediately.
func (s *opSource) table(n int, queryFrac, rate float64) []op {
	ops := make([]op, n)
	var due float64
	for i := range ops {
		o := &ops[i]
		if s.r.Float64() < queryFrac {
			o.query = true
			o.tokens = s.records[s.r.Intn(len(s.records))]
		} else {
			if s.nextAdd >= len(s.records) {
				fatalf("arrival table needs more than %d records", len(s.records))
			}
			o.tokens = s.records[s.nextAdd]
			s.nextAdd++
		}
		o.body = tokensBody(o.tokens)
		if rate > 0 {
			due += -math.Log(1-s.r.Float64()) / rate
			o.due = time.Duration(due * float64(time.Second))
		}
	}
	return ops
}

// send issues one op and reads the whole response.
func send(hc *http.Client, base string, o *op, res *opResult) {
	path := "/objects"
	if o.query {
		path = "/query"
	}
	res.op = o
	resp, err := hc.Post(base+path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		res.status = -1
		return
	}
	res.body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read
	res.status = resp.StatusCode
	res.coverage = resp.Header.Get("X-Kjoin-Coverage")
	if err != nil {
		res.status = -1
	}
}

// sender issues one op against some part of the fleet and fills in what
// came back.
type sender func(o *op, res *opResult)

// toServer sends every op to the one server at base.
func toServer(hc *http.Client, base string) sender {
	return func(o *op, res *opResult) { send(hc, base, o, res) }
}

// spanName names the client-side span of one op: kind says whom it was
// sent to ("client" for the workload's front door).
func spanName(kind string, o *op) string {
	if o.query {
		return kind + ".query"
	}
	return kind + ".add"
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. Go's own
// timers wake up to a millisecond late while the process is otherwise
// idle, which is the size of the latencies measured here.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// openLoop sends ops on their schedule over conns() connections,
// whatever the server's pace: a stall delays later ops, and because
// latency runs from the due time that wait is counted. It returns the
// results and the wall time from the first due time to the last answer.
func openLoop(do sender, ops []op, tr *tracer, kind string) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := start.Add(o.due)
				sleepUntil(due)
				sent := time.Now()
				from := due
				if free.After(from) {
					from = free
				}
				_, end := tr.begin(0, spanName(kind, o))
				do(o, &results[i])
				end()
				free = time.Now()
				results[i].lat = free.Sub(due)
				results[i].lag = sent.Sub(from)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// closedLoop keeps conns() connections busy back-to-back until the ops
// run out or dur (when positive) has passed, and returns the completed
// ops and the wall time they took.
func closedLoop(do sender, ops []op, dur time.Duration, tr *tracer) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dur <= 0 || time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				sent := time.Now()
				_, end := tr.begin(0, spanName("client", &ops[i]))
				do(&ops[i], &results[i])
				end()
				results[i].lat = time.Since(sent)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := results[:0]
	for i := range results {
		if results[i].op != nil {
			done = append(done, results[i])
		}
	}
	return done, elapsed
}

// latencies splits results into query and add latencies; a failed op
// has no latency and is counted by the caller.
func latencies(rs []opResult) (query, add []time.Duration) {
	for i := range rs {
		switch {
		case !rs[i].ok():
		case rs[i].op.query:
			query = append(query, rs[i].lat)
		default:
			add = append(add, rs[i].lat)
		}
	}
	return query, add
}
