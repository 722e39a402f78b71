package objectstore

import (
	"context"
	"errors"
	"testing"

	"rottnest/internal/simtime"
)

// TestGetRangeEdgeParity pins the GetRange edge semantics and checks
// every store implementation agrees: readers pick ranges against one
// contract, not against whichever store backs the lake today. The
// cached store must agree both cold (miss path) and warm (hit path),
// and the retry/fault wrappers must be transparent.
func TestGetRangeEdgeParity(t *testing.T) {
	const body = "0123456789"
	cases := []struct {
		name           string
		offset, length int64
		want           string
		wantErr        error
	}{
		{name: "whole object", offset: 0, length: -1, want: body},
		{name: "interior slice", offset: 2, length: 3, want: "234"},
		{name: "suffix", offset: -4, length: 0, want: "6789"},
		{name: "suffix ignores length", offset: -4, length: 2, want: "6789"},
		{name: "suffix larger than object clamps to start", offset: -100, length: 0, want: body},
		{name: "negative length reads to end", offset: 3, length: -1, want: "3456789"},
		{name: "zero length mid-object", offset: 3, length: 0, want: ""},
		{name: "zero length at end", offset: 10, length: 0, want: ""},
		{name: "negative length at end", offset: 10, length: -1, want: ""},
		{name: "length clamped at end", offset: 8, length: 100, want: "89"},
		{name: "offset past end", offset: 11, length: 1, wantErr: ErrInvalidRange},
		{name: "offset past end negative length", offset: 11, length: -1, wantErr: ErrInvalidRange},
	}

	factories := map[string]func() Store{
		"mem": func() Store { return NewMemStore(simtime.NewVirtualClock()) },
		"dir": func() Store {
			s, err := NewDirStore(t.TempDir())
			if err != nil {
				t.Fatalf("NewDirStore: %v", err)
			}
			return s
		},
		"cached": func() Store {
			return NewCachedStore(NewMemStore(simtime.NewVirtualClock()), CacheOptions{})
		},
		"retry": func() Store {
			return NewRetryStore(NewMemStore(simtime.NewVirtualClock()), RetryPolicy{})
		},
		"fault-quiet": func() Store {
			return NewFaultStoreWithProfile(NewMemStore(simtime.NewVirtualClock()), FaultProfile{})
		},
	}

	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			s := mk()
			if err := s.Put(ctx, "obj", []byte(body)); err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				// Twice: a cached store must agree on both the miss
				// and the hit path.
				for pass := 0; pass < 2; pass++ {
					got, err := s.GetRange(ctx, "obj", tc.offset, tc.length)
					if tc.wantErr != nil {
						if !errors.Is(err, tc.wantErr) {
							t.Fatalf("%s (pass %d): err = %v, want %v", tc.name, pass, err, tc.wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s (pass %d): %v", tc.name, pass, err)
					}
					if string(got) != tc.want {
						t.Fatalf("%s (pass %d): got %q, want %q", tc.name, pass, got, tc.want)
					}
				}
			}
			// Ranges on missing keys surface ErrNotFound, not
			// ErrInvalidRange, on every implementation.
			if _, err := s.GetRange(ctx, "missing", 0, 4); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: err = %v, want ErrNotFound", err)
			}
		})
	}
}
