package api

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
)

// The control wire: what the router and an instance exchange to place a
// submission, move an aggregate, hand over dedupe obligations and keep
// witness copies. Captured is always Samples + Lost, a shard's (or an
// aggregate's) weight in the fleet conservation sum.

// SubmitAck is an instance's 202 to a submission: Samples on a fresh
// admission, Duplicate on a retry of an admitted shard.
type SubmitAck struct {
	Shard      string  `json:"shard"`
	Captured   uint64  `json:"captured"`
	Samples    *uint64 `json:"samples,omitempty"`
	Duplicate  bool    `json:"duplicate,omitempty"`
	QueueDepth int     `json:"queue_depth"`
}

// Routed is the router's answer to a submission: the instance's ack or
// refusal (Raw when it was not JSON), the instance, the ring epoch of
// the placement, and the instances that refused with 503 on the way —
// each of which recorded the shard's captured samples as loss.
type Routed struct {
	*SubmitAck
	*Error
	Raw       *string  `json:"raw,omitempty"`
	Instance  string   `json:"instance"`
	Epoch     uint64   `json:"epoch"`
	RefusedBy []string `json:"refused_by,omitempty"`
}

// Unplaced is the router's 503 when no instance took a submission;
// RefusedBy is absent when none refused with 503, as in Routed.
type Unplaced struct {
	Error
	RefusedBy []string `json:"refused_by,omitempty"`
}

// StaleEpoch is the router's 409 to a submission placed under an old
// ring epoch; Epoch is the current one.
type StaleEpoch struct {
	Error
	Epoch uint64 `json:"epoch"`
}

// HandoffAck is a receiver's 202 to a handoff: the donor, its ledger
// ids, and the captured total merged (on a redelivery, the first's).
type HandoffAck struct {
	From      string `json:"from"`
	Shards    int    `json:"shards"`
	Captured  uint64 `json:"captured"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

// ConfirmAck is a donor's 200 to /v1/handoff/confirm: it has retired.
type ConfirmAck struct {
	Instance  string `json:"instance"`
	HandedOff bool   `json:"handed_off"`
}

// Adopt is the /v1/ledger/adopt request: shard ids whose ring ownership
// moved to the instance, and the donor that admitted them. A handoff
// envelope carries the same two keys, all of it the router reads.
type Adopt struct {
	From   string   `json:"from"`
	Shards []string `json:"shards"`
}

// AdoptAck answers an Adopt: Adopted of its Total ids were new there.
type AdoptAck struct {
	Instance string `json:"instance"`
	From     string `json:"from"`
	Adopted  int    `json:"adopted"`
	Total    int    `json:"total"`
}

// Ledger is the /v1/ledger body: the admitted shard ids, and those
// applied here, under a standing refusal (captured samples recorded as
// loss) or adopted from a donor.
type Ledger struct {
	Instance    string            `json:"instance"`
	Shards      []string          `json:"shards"`
	Count       int               `json:"count"`
	Applied     []string          `json:"applied"`
	Refused     map[string]uint64 `json:"refused"`
	AdoptedFrom map[string]string `json:"adopted_from"`
}

// Ready is an instance's 200 from /readyz.
type Ready struct {
	Ready      bool `json:"ready"`
	QueueDepth int  `json:"queue_depth"`
}

// MigrationReport is the router's answer to a membership change of Kind
// "add" or "remove": the shard ids whose owner changed, the adoptions
// installed (ids already admitted at their new owner are skipped), where
// a removed donor's aggregate landed and its captured total, and the
// ring epoch after the commit.
type MigrationReport struct {
	Kind          string `json:"kind"`
	Instance      string `json:"instance"`
	Receiver      string `json:"receiver,omitempty"`
	ShardsMoved   int    `json:"shards_moved"`
	Adopted       int    `json:"adopted"`
	CapturedMoved uint64 `json:"captured_moved,omitempty"`
	Epoch         uint64 `json:"epoch"`
}

// WitnessCopy names a witness copy — the instance that acknowledged the
// submission, and the shard — and carries the captured total of that
// ack. A put's query holds all three and its body is the submission,
// byte for byte; a fetch's query and a put's 202 body are the name.
type WitnessCopy struct {
	Origin   string `json:"origin"`
	Shard    string `json:"shard"`
	Captured uint64 `json:"-"`
}

// Query is c as a URL query; a zero Captured is left out.
func (c WitnessCopy) Query() string {
	q := url.Values{"origin": {c.Origin}, "shard": {c.Shard}}
	if c.Captured > 0 {
		q.Set("captured", strconv.FormatUint(c.Captured, 10))
	}
	return q.Encode()
}

// ParseWitnessCopy reads a copy from a query: origin and shard are
// required, and captured, when present, is a count.
func ParseWitnessCopy(q url.Values) (WitnessCopy, error) {
	c := WitnessCopy{Origin: q.Get("origin"), Shard: q.Get("shard")}
	if c.Origin == "" || c.Shard == "" {
		return c, errors.New("origin and shard parameters required")
	}
	var err error
	if s := q.Get("captured"); s != "" {
		if c.Captured, err = strconv.ParseUint(s, 10, 64); err != nil {
			err = fmt.Errorf("parameter \"captured\": %q is not a count", s)
		}
	}
	return c, err
}

// WitnessLedger is the /v1/witness/ledger body: origin -> copies held.
type WitnessLedger struct {
	Witness map[string][]WitnessRow `json:"witness"`
}

// WitnessRow is one copy a witness ledger lists.
type WitnessRow struct {
	Shard    string `json:"shard"`
	Captured uint64 `json:"captured"`
}

// WitnessPrune is the /v1/witness/prune request: copies of origin's
// shards that origin provably holds. Pruned answers it.
type WitnessPrune struct {
	Origin string   `json:"origin"`
	Shards []string `json:"shards"`
}

// Pruned is how many copies a WitnessPrune dropped.
type Pruned struct {
	Pruned int `json:"pruned"`
}

// WitnessStats is an instance's /v1/stats witness section.
type WitnessStats struct {
	Entries int    `json:"entries"`
	Origins int    `json:"origins"`
	Stored  uint64 `json:"stored"`
	Refused uint64 `json:"refused"`
	Pruned  uint64 `json:"pruned"`
}
