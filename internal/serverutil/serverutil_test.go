package serverutil

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteErrorShape(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, "bad_json", "cannot parse body")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "bad_json" || body.Error != "cannot parse body" {
		t.Errorf("body = %+v", body)
	}
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var logged atomic.Bool
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), Recover(func(string, ...any) { logged.Store(true) }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "internal_panic" {
		t.Errorf("code = %q", body.Code)
	}
	if !logged.Load() {
		t.Error("panic was not logged")
	}
}

func TestRecoverPassesThrough(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), Recover(nil))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestAdmitShedsLoadAt429(t *testing.T) {
	sem := NewSemaphore(2)
	enter := make(chan struct{})
	release := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		enter <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), Admit(sem, 1))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("admitted request: status %d", rec.Code)
			}
		}()
	}
	<-enter
	<-enter // both slots held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: status = %d, want 429", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 3 {
		t.Errorf("Retry-After = %q, want 1–3 seconds", ra)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "saturated" {
		t.Errorf("code = %q", body.Code)
	}

	close(release) // unblock the two admitted handlers; <-release now never blocks
	wg.Wait()
	// Slots must be released: a new request is admitted again.
	go func() { <-enter }()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-release request: status %d", rec.Code)
	}
}

// TestAdmitRetryAfterJitterBand saturates the gate and checks every
// shed response advertises a Retry-After inside the 1–3s band —
// and not always the same value, or shed clients would all retry in the
// same instant and recreate the overload they were shed for.
func TestAdmitRetryAfterJitterBand(t *testing.T) {
	sem := NewSemaphore(1)
	if !sem.TryAcquire() {
		t.Fatal("could not saturate semaphore")
	}
	defer sem.Release()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), Admit(sem, 42))
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, rec.Code)
		}
		ra := rec.Header().Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("request %d: Retry-After %q is not an integer", i, ra)
		}
		if secs < 1 || secs > 3 {
			t.Fatalf("request %d: Retry-After %d outside band [1,3]", i, secs)
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 shed requests all got the same Retry-After %v; jitter is not jittering", seen)
	}
}

// TestEdgeSetsDeadline: every limited request carries a deadline — the
// edge's RequestTimeout, or sooner when X-Kjoin-Deadline-Ms asks — on a
// chain configured the way a shard server configures it.
func TestEdgeSetsDeadline(t *testing.T) {
	e := NewEdge(Limits{})
	for _, hdr := range []string{"", "250"} {
		var dl time.Time
		var ok bool
		h := e.Limited(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
			dl, ok = r.Context().Deadline()
		}))
		req := httptest.NewRequest("GET", "/x", nil)
		budget := e.RequestTimeout
		if hdr != "" {
			req.Header.Set(HeaderDeadlineMs, hdr)
			budget = 250 * time.Millisecond
		}
		start := time.Now()
		h.ServeHTTP(httptest.NewRecorder(), req)
		if !ok {
			t.Fatalf("header %q: request context has no deadline", hdr)
		}
		if dl.After(time.Now().Add(budget)) || dl.Before(start.Add(budget-time.Second)) {
			t.Errorf("header %q: deadline %v from start, want within a second below %v", hdr, dl.Sub(start), budget)
		}
	}
}

func TestLimitBodyCaps(t *testing.T) {
	var gotErr error
	h := Chain(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, gotErr = io.ReadAll(r.Body)
	}), LimitBody(8))
	req := httptest.NewRequest("POST", "/x", strings.NewReader(strings.Repeat("a", 100)))
	h.ServeHTTP(httptest.NewRecorder(), req)
	var mbe *http.MaxBytesError
	if !errors.As(gotErr, &mbe) {
		t.Fatalf("read error = %v, want *http.MaxBytesError", gotErr)
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.txt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello world")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello world" {
		t.Errorf("content = %q", b)
	}
	// Overwrite: new content fully replaces old.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if string(b) != "v2" {
		t.Errorf("content after overwrite = %q", b)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp file left behind?)", len(entries))
	}
}

// TestWriteFileAtomicFaultInjection kills the write midway and checks
// the target file is never corrupted: old contents stay intact and no
// temp file leaks.
func TestWriteFileAtomicFaultInjection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.txt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good snapshot")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("disk on fire")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		// Partial write, then failure — the torn state a crash mid-write
		// would leave in a non-atomic implementation.
		io.WriteString(w, "half a snap")
		return injected
	})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(b) != "good snapshot" {
		t.Errorf("target corrupted by failed write: %q", b)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("temp file leaked: %d entries in dir", len(entries))
	}
}

func TestSnapshotterBackoffAndRecovery(t *testing.T) {
	var calls atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	wrote := make(chan int64, 64)
	s := &Snapshotter{
		Interval:   time.Millisecond,
		MinBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
		Write: func() error {
			n := calls.Add(1)
			if fail.Load() {
				return errors.New("injected snapshot failure")
			}
			wrote <- n
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	// Let it fail (and back off) a few times, then heal the disk.
	deadline := time.After(5 * time.Second)
	for calls.Load() < 3 {
		select {
		case <-deadline:
			t.Fatal("snapshotter stopped retrying after failures")
		case <-time.After(time.Millisecond):
		}
	}
	fail.Store(false)
	select {
	case <-wrote:
		// recovered: a successful snapshot happened
	case <-deadline:
		t.Fatal("snapshotter never recovered after failures stopped")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshotter did not stop on ctx cancel")
	}
}

func TestSnapshotterStopsOnCancel(t *testing.T) {
	s := &Snapshotter{Interval: time.Hour, Write: func() error { return nil }}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return on cancel")
	}
}
