package lake

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
)

// CheckpointInterval is how many commits between automatic log
// checkpoints. A checkpoint summarizes the table state at one version
// so snapshot construction replays only the log suffix — the same
// mechanism Delta Lake uses to keep log replay O(1) as tables age.
const CheckpointInterval = 32

// checkpointState is the serialized table state at one version.
type checkpointState struct {
	Version int64           `json:"version"`
	Schema  *parquet.Schema `json:"schema"`
	Files   []DataFile      `json:"files"`
}

func checkpointKey(root string, version int64) string {
	return fmt.Sprintf("%s%scheckpoint-%020d.json", root, logDir, version)
}

// checkpointVersionFromKey parses a checkpoint key.
func checkpointVersionFromKey(root, key string) (int64, bool) {
	name := strings.TrimPrefix(key, root+logDir+"checkpoint-")
	if name == key || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	name = strings.TrimSuffix(name, ".json")
	if len(name) != 20 {
		return 0, false
	}
	var v int64
	for _, c := range name {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// maybeCheckpoint writes a checkpoint if the committed version is a
// multiple of CheckpointInterval. Best effort: a failed checkpoint
// write never fails the commit, and an identical re-write by a racing
// committer is harmless (the content is deterministic for a version).
func (t *Table) maybeCheckpoint(ctx context.Context, version int64) {
	if version%CheckpointInterval != 0 {
		return
	}
	snap, err := t.SnapshotAt(ctx, version)
	if err != nil {
		return
	}
	state := checkpointState{Version: snap.Version, Schema: snap.Schema, Files: snap.Files}
	data, err := json.Marshal(state)
	if err != nil {
		return
	}
	_ = t.store.Put(ctx, checkpointKey(t.root, version), data)
}

// newestCheckpoint names the newest checkpoint at or below maxVersion
// (maxVersion < 0 means any) among the listed log objects, or "".
func newestCheckpoint(root string, infos []objectstore.ObjectInfo, maxVersion int64) (int64, string) {
	best, bestKey := int64(0), ""
	for _, info := range infos {
		v, ok := checkpointVersionFromKey(root, info.Key)
		if ok && (maxVersion < 0 || v <= maxVersion) && v > best {
			best, bestKey = v, info.Key
		}
	}
	return best, bestKey
}
