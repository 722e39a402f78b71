package txlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rottnest/internal/objectstore"
	"rottnest/internal/simtime"
)

// wordsFormat is the smallest log: a record is a JSON string, the state
// every record so far.
var wordsFormat = Format[[]string]{
	Name:     "words",
	Interval: 4,
	Apply: func(base []string, _ int64, records [][]byte) ([]string, error) {
		out := append([]string(nil), base...)
		for _, r := range records {
			var w string
			if err := json.Unmarshal(r, &w); err != nil {
				return nil, err
			}
			out = append(out, w)
		}
		return out, nil
	},
	EncodeCheckpoint: func(version int64, words []string) ([]byte, error) {
		return json.Marshal(map[string]any{"version": version, "words": words})
	},
	DecodeCheckpoint: func(data []byte) (int64, []string, error) {
		var cp struct {
			Version int64
			Words   []string
		}
		err := json.Unmarshal(data, &cp)
		return cp.Version, cp.Words, err
	},
}

func word(w string) func(int64) ([]byte, error) {
	return func(int64) ([]byte, error) { return json.Marshal(w) }
}

func wordsTo(n int) []string {
	var out []string
	for i := 1; i <= n; i++ {
		out = append(out, fmt.Sprint("w", i))
	}
	return out
}

// TestHandleRemembersWhatItHasReadAndWritten walks one handle through
// the request count of every path: a blind first commit, commits and
// reads of versions it knows (no LIST), the newest state (a LIST and
// only unseen records), a lost race, time travel below what it
// remembers (the checkpoint), and every state from one listing.
func TestHandleRemembersWhatItHasReadAndWritten(t *testing.T) {
	ctx := context.Background()
	mem := objectstore.NewMemStore(simtime.NewVirtualClock())
	store, metrics := objectstore.Instrument(mem, objectstore.LatencyModel{})
	a, b := New(store, "log/", wordsFormat), New(store, "log/", wordsFormat)
	step := func(name string, want objectstore.Snapshot, fn func() error) {
		t.Helper()
		before := metrics.Snapshot()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := metrics.Snapshot().Sub(before)
		got.BytesRead, got.BytesWritten = 0, 0
		if got != want {
			t.Fatalf("%s issued %+v, want %+v", name, got, want)
		}
	}
	commit := func(l *Log[[]string], n int) func() error {
		return func() error {
			v, err := l.Commit(ctx, word(fmt.Sprint("w", n)), nil)
			if err == nil && v != int64(n) {
				err = fmt.Errorf("landed at %d, want %d", v, n)
			}
			return err
		}
	}
	read := func(l *Log[[]string], version int64, want int) func() error {
		return func() error {
			got, v, err := l.Read(ctx, version)
			if err == nil && (v != int64(want) || !reflect.DeepEqual(got, wordsTo(want))) {
				err = fmt.Errorf("read %v at %d, want %v", got, v, wordsTo(want))
			}
			return err
		}
	}
	step("blind first commit", objectstore.Snapshot{Puts: 1}, commit(a, 1))
	step("commit after own commit", objectstore.Snapshot{Puts: 1}, commit(a, 2))
	step("read of own version", objectstore.Snapshot{}, read(a, 2, 2))
	step("newest, nothing unseen", objectstore.Snapshot{Lists: 1}, read(a, -1, 2))
	step("fresh handle reads", objectstore.Snapshot{Lists: 1, Gets: 2}, read(b, -1, 2))
	step("b commits", objectstore.Snapshot{Puts: 1}, commit(b, 3))
	// The fourth commit also writes the checkpoint, from memory.
	step("a loses the race, reads the suffix, lands", objectstore.Snapshot{Puts: 3, Lists: 1, Gets: 1}, commit(a, 4))
	step("a commits again", objectstore.Snapshot{Puts: 1}, commit(a, 5))
	step("b: newest, two unseen", objectstore.Snapshot{Lists: 1, Gets: 2}, read(b, -1, 5))
	step("b: below what it remembers", objectstore.Snapshot{Lists: 1, Gets: 1}, read(b, 4, 4)) // the checkpoint
	step("b: below the checkpoint", objectstore.Snapshot{Lists: 1, Gets: 3}, read(b, 3, 3))

	// A version the handle knows of above what it remembers: by key.
	c := New(store, "log/", wordsFormat)
	step("c reads 3", objectstore.Snapshot{Lists: 1, Gets: 3}, read(c, 3, 3))
	step("c reads 5, which that LIST showed", objectstore.Snapshot{Gets: 2}, read(c, 5, 5))
	step("every state from 2, below the checkpoint", objectstore.Snapshot{Lists: 1, Gets: 5}, func() error {
		states, err := New(store, "log/", wordsFormat).ReadFrom(ctx, 2)
		for i, want := range [][]string{wordsTo(2), wordsTo(3), wordsTo(4), wordsTo(5)} {
			if err == nil && (len(states) != 4 || !reflect.DeepEqual(states[i], want)) {
				err = fmt.Errorf("states = %v", states)
			}
		}
		return err
	})
	if _, _, err := a.Read(ctx, 9); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("read of a version past the end: %v, want ErrNoVersion", err)
	}
	if got, v, err := New(store, "empty/", wordsFormat).Read(ctx, -1); err != nil || v != 0 || got != nil {
		t.Fatalf("empty log reads %v at %d, %v", got, v, err)
	}
}

// TestValidateSeesTheStateThePutProves: validate runs against the state
// at seen before every attempt — after a lost race, against the state
// that won it — and a handle that has read nothing reads first.
func TestValidateSeesTheStateThePutProves(t *testing.T) {
	ctx := context.Background()
	store := objectstore.NewMemStore(simtime.NewVirtualClock())
	a, b := New(store, "log/", wordsFormat), New(store, "log/", wordsFormat)
	var saw [][]string
	validate := func(cur []string) error {
		saw = append(saw, cur)
		if len(cur) >= 3 {
			return errors.New("full")
		}
		return nil
	}
	if _, err := a.Commit(ctx, word("w1"), validate); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(ctx, word("w2"), validate); err != nil { // b reads first
		t.Fatal(err)
	}
	if _, err := a.Commit(ctx, word("w3"), validate); err != nil { // a is behind b
		t.Fatal(err)
	}
	if _, err := b.Commit(ctx, word("w4"), validate); err == nil || err.Error() != "full" {
		t.Fatalf("commit into a full log: %v", err)
	}
	want := [][]string{nil, wordsTo(1), wordsTo(1), wordsTo(2), wordsTo(2), wordsTo(3)}
	if !reflect.DeepEqual(saw, want) {
		t.Fatalf("validate saw %v, want %v", saw, want)
	}
	if got, _, _ := New(store, "log/", wordsFormat).Read(ctx, -1); !reflect.DeepEqual(got, wordsTo(3)) {
		t.Fatalf("log holds %v", got)
	}
}
