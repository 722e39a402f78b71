package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DirStore is a Store backed by a directory tree on the local
// filesystem. Keys map to file paths under the root; creation times
// come from file modification times. It provides the same strong
// read-after-write semantics as MemStore (local filesystems are
// strongly consistent) and is used by the CLI and runnable examples so
// that lakes and indices persist across process runs.
type DirStore struct {
	root string
	// mu serializes PutIfAbsent, which needs a check-then-create
	// sequence (O_EXCL covers cross-process races; the mutex covers
	// in-process ones cheaply).
	mu sync.Mutex
}

// NewDirStore returns a DirStore rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objectstore: create root: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("objectstore: resolve root: %w", err)
	}
	return &DirStore{root: abs}, nil
}

// Root returns the directory the store writes under.
func (s *DirStore) Root() string { return s.root }

func (s *DirStore) path(key string) (string, error) {
	clean := filepath.Clean("/" + key) // forces the key under root
	p := filepath.Join(s.root, clean)
	if !strings.HasPrefix(p, s.root) {
		return "", fmt.Errorf("objectstore: key %q escapes store root", key)
	}
	return p, nil
}

// Put implements Store. The write is staged to a temporary file and
// renamed into place so concurrent readers never observe a partial
// object; note this is an implementation detail of the local backend,
// not a primitive Rottnest's protocol relies on.
func (s *DirStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("objectstore: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return fmt.Errorf("objectstore: put %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("objectstore: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("objectstore: put %s: %w", key, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("objectstore: put %s: %w", key, err)
	}
	return nil
}

// PutIfAbsent implements Store using O_EXCL file creation.
func (s *DirStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("objectstore: put-if-absent %s: %w", key, err)
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return ErrExists
	}
	if err != nil {
		return fmt.Errorf("objectstore: put-if-absent %s: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(p)
		return fmt.Errorf("objectstore: put-if-absent %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(p)
		return fmt.Errorf("objectstore: put-if-absent %s: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *DirStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("objectstore: get %s: %w", key, err)
	}
	return data, nil
}

// GetRange implements Store.
func (s *DirStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("objectstore: get-range %s: %w", key, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("objectstore: get-range %s: %w", key, err)
	}
	start, end, err := resolveRange(fi.Size(), offset, length)
	if err != nil {
		return nil, err
	}
	out := make([]byte, end-start)
	if _, err := f.ReadAt(out, start); err != nil && end > start {
		return nil, fmt.Errorf("objectstore: get-range %s: %w", key, err)
	}
	return out, nil
}

// Head implements Store.
func (s *DirStore) Head(ctx context.Context, key string) (ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, err
	}
	p, err := s.path(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	fi, err := os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return ObjectInfo{}, ErrNotFound
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("objectstore: head %s: %w", key, err)
	}
	return ObjectInfo{Key: key, Size: fi.Size(), Created: fi.ModTime()}, nil
}

// List implements Store.
func (s *DirStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Walk only the deepest directory the prefix names: every key under
	// the prefix lies below it, and a prefix that ends mid-name filters
	// its entries below.
	start, err := s.path(prefix[:strings.LastIndex(prefix, "/")+1])
	if err != nil {
		return nil, err
	}
	var infos []ObjectInfo
	// A file or directory deleted between its directory's read and its
	// visit is skipped, as an S3 LIST may omit an object deleted while
	// it runs.
	err = filepath.WalkDir(start, func(p string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // nothing stored under the prefix, or deleted mid-walk
		}
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(p), ".put-") {
			return nil // in-flight staging file
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) {
			return nil
		}
		fi, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		infos = append(infos, ObjectInfo{Key: key, Size: fi.Size(), Created: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("objectstore: list %s: %w", prefix, err)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

// Delete implements Store.
func (s *DirStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("objectstore: delete %s: %w", key, err)
	}
	return nil
}
