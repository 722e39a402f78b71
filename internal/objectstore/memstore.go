package objectstore

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"rottnest/internal/simtime"
)

// MemStore is an in-memory Store with strong read-after-write
// consistency. Object creation times are stamped from the provided
// Clock, which in simulations is the single global clock of the world.
type MemStore struct {
	clock simtime.Clock

	mu      sync.RWMutex
	objects map[string]memObject
}

type memObject struct {
	data    []byte
	created time.Time
}

// NewMemStore returns an empty MemStore stamping creation times from
// clock. A nil clock defaults to the real wall clock.
func NewMemStore(clock simtime.Clock) *MemStore {
	if clock == nil {
		clock = simtime.RealClock{}
	}
	return &MemStore{clock: clock, objects: make(map[string]memObject)}
}

// Clock returns the clock stamping the store's creation times.
func (s *MemStore) Clock() simtime.Clock { return s.clock }

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.objects[key] = memObject{data: cp, created: s.clock.Now()}
	s.mu.Unlock()
	return nil
}

// PutIfAbsent implements Store.
func (s *MemStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[key]; ok {
		return ErrExists
	}
	s.objects[key] = memObject{data: cp, created: s.clock.Now()}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	return s.GetRange(ctx, key, 0, -1)
}

// GetRange implements Store.
func (s *MemStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	obj, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	start, end, err := resolveRange(int64(len(obj.data)), offset, length)
	if err != nil {
		return nil, err
	}
	out := make([]byte, end-start)
	copy(out, obj.data[start:end])
	return out, nil
}

// Head implements Store.
func (s *MemStore) Head(ctx context.Context, key string) (ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.RLock()
	obj, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return ObjectInfo{Key: key, Size: int64(len(obj.data)), Created: obj.created}, nil
}

// List implements Store.
func (s *MemStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	infos := make([]ObjectInfo, 0, 16)
	for key, obj := range s.objects {
		if strings.HasPrefix(key, prefix) {
			infos = append(infos, ObjectInfo{Key: key, Size: int64(len(obj.data)), Created: obj.created})
		}
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

// Delete implements Store.
func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
	return nil
}

// Len reports the number of stored objects.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// TotalBytes reports the sum of all object sizes, i.e. the storage
// footprint the TCO model charges per month.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, obj := range s.objects {
		total += int64(len(obj.data))
	}
	return total
}
