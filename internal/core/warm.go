package core

import (
	"context"

	"rottnest/internal/component"
	"rottnest/internal/fmindex"
	"rottnest/internal/ivfpq"
	"rottnest/internal/lake"
	"rottnest/internal/trie"
)

// This file is the client's warm serving path: every decoded object a
// search reconstructs per query — component reader directories,
// manifests, index open results, deletion vectors — is fetched
// through the decoded-object cache when one is configured, and the
// two invalidation events every cache tier hangs off live here.
//
// All cached values are immutable under their id: index files,
// manifests (component 0 of the index file), and deletion vectors all
// live at crypto-random object keys that are never overwritten, so an
// id can only go stale by deletion — which is objectGone.

// objectGone is raised by whoever deletes the object at key or finds
// it deleted (core vacuum, the lake-vacuum hook, the stale-index
// replan). It drops the key's tag from every tier — cached byte
// ranges, decoded forms, memoized probes — and keeps loads of it that
// are in flight from becoming resident.
func (c *Client) objectGone(key string) {
	if c.store.Cache != nil {
		c.store.Cache.Invalidate(key)
	}
	c.objc.Invalidate(key)
	c.batch.invalidateIndex(key)
}

// metaChanged is raised by every metadata-table write (index,
// compact, refine, drop and vacuum commits, their rollbacks) and by
// the stale-index replan: cached plans list rows that no longer match
// the table.
func (c *Client) metaChanged() { c.plans.invalidateAll() }

// cached returns the decoded form kind of the object id through the
// decoded-object cache, degrading to the direct decode when the cache
// is off so the cold path is byte-identical to the pre-cache client.
func cached[T interface{ Footprint() int64 }](ctx context.Context, c *Client, kind, id string, decode func(context.Context) (T, error)) (T, error) {
	if c.objc == nil {
		return decode(ctx)
	}
	v, err := c.objc.Do(ctx, kind, id, func(ctx context.Context) (any, int64, error) {
		t, err := decode(ctx)
		if err != nil {
			return nil, 0, err
		}
		return t, t.Footprint(), nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// openReader returns a (possibly shared) component reader for the
// index object at key. Shared readers are opened with NoRetain so
// posting payloads read through them do not accumulate; repeat-read
// savings for payload bytes belong to the byte-level CachedStore.
func (c *Client) openReader(ctx context.Context, key string) (*component.Reader, error) {
	return cached(ctx, c, "reader", key, func(ctx context.Context) (*component.Reader, error) {
		return component.Open(ctx, c.store, key, component.OpenOptions{NoRetain: c.objc != nil})
	})
}

// manifest returns the (possibly shared) decoded manifest of the
// index file behind r.
func (c *Client) manifest(ctx context.Context, r *component.Reader) (*Manifest, error) {
	return cached(ctx, c, "manifest", r.Key(), func(ctx context.Context) (*Manifest, error) {
		return readManifest(ctx, r)
	})
}

// Footprint estimates a decoded manifest's resident bytes.
func (m *Manifest) Footprint() int64 {
	total := int64(128)
	for _, f := range m.Files {
		total += int64(len(f.Path)) + 48*int64(len(f.Pages)) + 64
	}
	return total
}

// openTrie returns the (possibly shared) open result of the trie
// index behind r — its root bucket table; node payloads stay lazy.
func (c *Client) openTrie(ctx context.Context, r *component.Reader) (*trie.Index, error) {
	return cached(ctx, c, "trie", r.Key(), func(ctx context.Context) (*trie.Index, error) {
		return trie.Open(ctx, r)
	})
}

// openFM returns the (possibly shared) open result of the FM-index
// behind r — page starts, refs, and occ checkpoints; BWT blocks stay
// lazy.
func (c *Client) openFM(ctx context.Context, r *component.Reader) (*fmindex.Index, error) {
	return cached(ctx, c, "fm", r.Key(), func(ctx context.Context) (*fmindex.Index, error) {
		return fmindex.Open(ctx, r)
	})
}

// openIVF returns the (possibly shared) open result of the IVF-PQ
// index behind r — centroids, codebooks, and list descriptors;
// posting lists stay lazy.
func (c *Client) openIVF(ctx context.Context, r *component.Reader) (*ivfpq.Index, error) {
	return cached(ctx, c, "ivfpq", r.Key(), func(ctx context.Context) (*ivfpq.Index, error) {
		return ivfpq.Open(ctx, r)
	})
}

// readDV returns the (possibly shared) decoded deletion vector of f.
// The cache id is the DV's full object key: DeleteRows writes each
// new vector to a fresh random path, so the id doubles as the DV
// version and a cached entry can never serve a superseded vector.
func (c *Client) readDV(ctx context.Context, f lake.DataFile) (*lake.DeletionVector, error) {
	if f.DVPath == "" {
		return c.table.ReadDeletionVector(ctx, f)
	}
	return cached(ctx, c, "dv", c.table.Root()+f.DVPath, func(ctx context.Context) (*lake.DeletionVector, error) {
		return c.table.ReadDeletionVector(ctx, f)
	})
}
