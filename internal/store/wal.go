// Package store is the durable job store behind `patty serve
// -store-dir`: a write-ahead log of job lifecycle records (accepted,
// checkpoint-ref, started, finalized) periodically compacted into a
// snapshot written with internal/checkpoint's atomic-rename machinery.
// Every record is CRC-framed, so a SIGKILL at any byte leaves a log
// whose maximal valid prefix is recoverable: a torn tail is silently
// truncated, anything else surfaces as a typed error — never a panic,
// never a partial record applied.
package store

import (
	"encoding/json"
	"time"

	"patty/internal/jobs"
)

// Record operations, one per job lifecycle edge.
const (
	// OpAccepted: the job was admitted; Job and Spec are set. Written
	// before the submitter gets an id, so every acknowledgment is here.
	OpAccepted = "accepted"
	// OpCheckpoint: ID's resume journal lives at Path.
	OpCheckpoint = "ckpt"
	// OpStarted: ID was dispatched to a worker (diagnostic).
	OpStarted = "started"
	// OpFinalized: the job reached a terminal state; Job carries the
	// final Info and Result the result payload. First one wins.
	OpFinalized = "finalized"
)

// Record is one WAL entry.
type Record struct {
	Op     string          `json:"op"`
	ID     string          `json:"id,omitempty"`
	Path   string          `json:"path,omitempty"`
	Job    jobs.Info       `json:"job,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// At is the append wall-clock time (diagnostic only; recovery
	// trusts the Info timestamps).
	At time.Time `json:"at,omitempty"`
}

// walMagic opens every WAL frame (internal/checkpoint's frame codec).
// The trailing space doubles as the field separator of the header
// line.
const walMagic = "walrec "
