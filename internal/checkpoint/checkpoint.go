// Package checkpoint owns the repo's durability primitives: the CRC
// frame codec every durable file is built from (frame.go), the atomic
// write and fsync helpers, and crash-safe snapshots of long-running
// work — tuner search state, fuzzing-sweep progress, measured study
// outcomes — so a process killed mid-run (SIGKILL included) resumes
// exactly where it stopped instead of restarting from zero.
//
// Snapshot files are journaled in the write-ahead sense: a snapshot is
// first written to a temporary file in the target directory, fsynced,
// and then atomically renamed over the previous snapshot (the
// directory is fsynced too). A reader therefore always sees either the
// previous complete snapshot or the new complete snapshot, never a
// torn mix — the invariant the kill-and-restart harness depends on.
//
// A snapshot is one frame with the magic line "pattyckpt\n", no
// trailing newline, spanning the whole file:
//
//	pattyckpt\n
//	<crc32c-hex8> <payload-length>\n
//	<payload bytes>            (JSON: {"version":1,"kind":...,"data":...})
//
// The CRC covers the whole payload, so any truncation, bit flip or
// partial write — at any byte offset, header or payload — surfaces as
// a typed ErrCorruptCheckpoint, never as a panic or a silently partial
// load (TestCheckpointCorruptionEveryOffset proves this byte by byte).
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Version is the current snapshot format version.
const Version = 1

// magic is the first line of every snapshot file.
const magic = "pattyckpt\n"

var (
	// ErrCorruptCheckpoint marks a snapshot that is truncated, bit-
	// flipped or otherwise unreadable. Callers treat it as "no usable
	// checkpoint": start fresh rather than trust partial state.
	ErrCorruptCheckpoint = errors.New("checkpoint: corrupt or truncated snapshot")
	// ErrKindMismatch marks a structurally valid snapshot written for a
	// different purpose (e.g. loading a fuzz-sweep checkpoint as tuner
	// state). Distinct from corruption: the file is fine, the caller is
	// wrong.
	ErrKindMismatch = errors.New("checkpoint: snapshot kind mismatch")
)

// envelope is the checksummed JSON payload.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Data    json.RawMessage `json:"data"`
}

// Encode renders a snapshot to its on-disk byte form.
func Encode(kind string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal %q: %w", kind, err)
	}
	payload, err := json.Marshal(envelope{Version: Version, Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	return appendFrame(nil, magic, payload), nil
}

// Decode parses bytes produced by Encode into v, enforcing magic,
// version, checksum, exact length and kind.
func Decode(raw []byte, kind string, v any) error {
	payload, n, err := readFrame(raw, magic, "")
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	if n != len(raw) {
		return fmt.Errorf("%w: %d byte(s) past the frame", ErrCorruptCheckpoint, len(raw)-n)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if env.Version != Version {
		return fmt.Errorf("%w: snapshot version %d, this build reads %d",
			ErrCorruptCheckpoint, env.Version, Version)
	}
	if env.Kind != kind {
		return fmt.Errorf("%w: snapshot holds %q, caller wants %q", ErrKindMismatch, env.Kind, kind)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		return fmt.Errorf("%w: data: %v", ErrCorruptCheckpoint, err)
	}
	return nil
}

// Save atomically writes a snapshot of v to path: temp file in the
// same directory, fsync, rename, directory fsync. A crash at any
// instant leaves either the old snapshot or the new one.
func Save(path, kind string, v any) error {
	raw, err := Encode(kind, v)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, raw)
}

// Load reads the snapshot at path into v. A missing file reports
// fs.ErrNotExist (check with os.IsNotExist / errors.Is); any damaged
// file reports ErrCorruptCheckpoint.
func Load(path, kind string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := Decode(raw, kind, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
