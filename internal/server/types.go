package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"hetmem/internal/bitmap"
	"hetmem/internal/jsonenc"
	"hetmem/internal/memsim"
)

// MaxRequestBytes bounds the size of a request body the daemon will
// decode; anything larger is rejected before parsing.
const MaxRequestBytes = 1 << 20

// Errors returned by request decoding.
var (
	ErrBadRequest = errors.New("server: bad request")
)

// AllocRequest asks the daemon to place a buffer: the paper's
// mem_alloc(name, size, attribute) over the wire, plus the initiator
// (where the client's threads run) and the allocator options.
type AllocRequest struct {
	// Name labels the buffer for reports.
	Name string `json:"name"`
	// Size is the buffer size in bytes.
	Size uint64 `json:"size"`
	// Attr is the attribute name ("Bandwidth", "Latency", "Capacity",
	// or any attribute registered on the daemon).
	Attr string `json:"attr"`
	// Initiator is a cpuset list, e.g. "0-15" or "0,2,4". Empty means
	// the whole machine.
	Initiator string `json:"initiator,omitempty"`
	// Policy is "preferred" (ranked fallback, the default) or "bind"
	// (best target or fail).
	Policy string `json:"policy,omitempty"`
	// Partial allows splitting the buffer across targets when no single
	// one fits.
	Partial bool `json:"partial,omitempty"`
	// Remote extends candidates to non-local nodes.
	Remote bool `json:"remote,omitempty"`
	// IdempotencyKey, when set, makes the request safe to retry: a
	// second /alloc with the same key returns the first one's lease
	// instead of allocating again. Keys live until the lease is freed.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TTLSeconds asks for a lease time-to-live (fractional seconds;
	// the daemon clamps it into its configured window). 0 defers to
	// the daemon's default, which may be "never expires". A TTL lease
	// must be renewed via /renew before it expires, or the orphan
	// reaper frees it.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// AllocResponse reports a placement and the lease that owns it.
type AllocResponse struct {
	// Lease identifies the allocation for /free and /migrate.
	Lease uint64 `json:"lease"`
	// Placement is the human-readable node list, e.g. "MCDRAM#4" or
	// "MCDRAM#4+DRAM#0".
	Placement string `json:"placement"`
	// AttrUsed is the attribute actually used after fallback.
	AttrUsed     string `json:"attr_used"`
	AttrFellBack bool   `json:"attr_fell_back,omitempty"`
	// Rank is the index of the chosen target in the ranking (0 = best).
	Rank    int  `json:"rank"`
	Partial bool `json:"partial,omitempty"`
	Remote  bool `json:"remote,omitempty"`
	// TTLSeconds is the granted time-to-live (possibly clamped from
	// the request); 0 means the lease never expires.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// Tenant echoes the X-Hetmem-Tenant header when the request named
	// one; absent for untenanted requests (the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Advice is set when the request carried no attribute and the
	// tiering advisor chose one: the attribute the daemon placed under
	// (the advisor's live classification of this buffer name, or
	// "Capacity" for a name it has never observed).
	Advice string `json:"advice,omitempty"`
}

// MaxBatchAllocs bounds the items in one /v1/alloc/batch request.
const MaxBatchAllocs = 256

// BatchAllocRequest carries many placements that share one journal
// batch: one write, one fsync, no matter how many items. Items are
// placed independently — a failed item does not undo its siblings.
type BatchAllocRequest struct {
	Requests []AllocRequest `json:"requests"`
}

// BatchAllocItem is one item's outcome: exactly one of Alloc or Error
// is set.
type BatchAllocItem struct {
	Alloc *AllocResponse `json:"alloc,omitempty"`
	Error *ErrorBody     `json:"error,omitempty"`
}

// BatchAllocResponse reports per-item outcomes in request order.
type BatchAllocResponse struct {
	Results   []BatchAllocItem `json:"results"`
	Succeeded int              `json:"succeeded"`
	Failed    int              `json:"failed"`
}

// RenewRequest is a lease heartbeat: it pushes the lease's expiry one
// TTL into the future. TTLSeconds optionally changes the TTL (clamped
// like an alloc's); 0 keeps the granted one.
type RenewRequest struct {
	Lease      uint64  `json:"lease"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// RenewResponse acknowledges a heartbeat with the TTL now in force.
type RenewResponse struct {
	Lease      uint64  `json:"lease"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// FreeRequest releases a lease.
type FreeRequest struct {
	Lease uint64 `json:"lease"`
}

// FreeResponse acknowledges a release.
type FreeResponse struct {
	Lease uint64 `json:"lease"`
	Freed bool   `json:"freed"`
}

// MigrateRequest re-places a leased buffer for a (possibly different)
// attribute, e.g. across application phases.
type MigrateRequest struct {
	Lease     uint64 `json:"lease"`
	Attr      string `json:"attr"`
	Initiator string `json:"initiator,omitempty"`
	Remote    bool   `json:"remote,omitempty"`
}

// MigrateResponse reports the new placement and the simulated copy
// cost the paper warns about.
type MigrateResponse struct {
	Lease       uint64  `json:"lease"`
	Placement   string  `json:"placement"`
	Rank        int     `json:"rank"`
	CostSeconds float64 `json:"cost_seconds"`
}

// AttrValue is one (target, initiator, value) entry of the attribute
// dump — a row of the paper's Figure 5 report.
type AttrValue struct {
	Target    string `json:"target"`    // e.g. "MCDRAM#4"
	TargetOS  int    `json:"target_os"` // NUMA OS index
	Initiator string `json:"initiator,omitempty"`
	Value     uint64 `json:"value"`
}

// AttrReport dumps one attribute over all targets.
type AttrReport struct {
	Name   string      `json:"name"`
	Flags  string      `json:"flags"`
	Values []AttrValue `json:"values"`
}

// LeaseInfo describes one live lease.
type LeaseInfo struct {
	Lease     uint64 `json:"lease"`
	Name      string `json:"name"`
	Size      uint64 `json:"size"`
	Placement string `json:"placement"`
	Tenant    string `json:"tenant,omitempty"`
	// Attr is the lease's current attribute — the one it was allocated
	// under, or the advisor's reclassification after an advisor move.
	Attr string `json:"attr,omitempty"`
	// Class is the advisor's live classification of the lease
	// ("Latency", "Bandwidth", or "Capacity"); absent when the advisor
	// is off or has not yet observed the lease.
	Class string `json:"class,omitempty"`
	// Telemetry is the lease buffer's cumulative access counters from
	// the simulated workload; absent when the buffer was never touched.
	Telemetry *memsim.Telemetry `json:"telemetry,omitempty"`
}

// LeaseDetailResponse is GET /v1/leases/{id}: everything /v1/leases
// reports for the lease plus the request-shaping fields (initiator,
// TTL) and the full telemetry block, zero or not.
type LeaseDetailResponse struct {
	Lease      uint64           `json:"lease"`
	Name       string           `json:"name"`
	Size       uint64           `json:"size"`
	Attr       string           `json:"attr"`
	Placement  string           `json:"placement"`
	Tenant     string           `json:"tenant,omitempty"`
	Initiator  string           `json:"initiator,omitempty"`
	TTLSeconds float64          `json:"ttl_seconds,omitempty"`
	Class      string           `json:"class,omitempty"`
	Telemetry  memsim.Telemetry `json:"telemetry"`
}

// LeasesResponse summarizes the live lease table, including the
// per-node and per-tenant byte totals that must agree with /metrics.
type LeasesResponse struct {
	Count     int               `json:"count"`
	Bytes     uint64            `json:"bytes"`
	NodeBytes map[string]uint64 `json:"node_bytes"`
	// TenantBytes sums each tenant's placed bytes, computed from the
	// lease table — the cross-check against the tenant registry's own
	// hetmemd_tenant_bytes books in /metrics.
	TenantBytes map[string]uint64 `json:"tenant_bytes,omitempty"`
	Leases      []LeaseInfo       `json:"leases,omitempty"`
}

// NodeHealth is one node's entry in the /health report. On a cluster
// router the "nodes" are whole member daemons: Node carries the
// member name, OS its slot index, and InstanceID the member's
// per-boot instance ID.
type NodeHealth struct {
	Node  string `json:"node"` // e.g. "DRAM#0", or a member name
	OS    int    `json:"os"`
	State string `json:"state"` // "healthy", "degraded", or "offline"
	// InstanceID is set on cluster-member rows: the member's per-boot
	// instance ID as of the router's last successful health poll.
	InstanceID string `json:"instance_id,omitempty"`
}

// HealthResponse is the daemon's /health report: overall status,
// per-node health states, and capacity pressure against the shed
// watermark.
type HealthResponse struct {
	// Status is "ok" when every node is healthy, else "degraded".
	Status string `json:"status"`
	// InstanceID is the daemon's per-boot instance ID: random on every
	// start, stable until the process exits. A router polling /health
	// uses it to tell a restarted member from the one it was talking
	// to behind the same address.
	InstanceID string `json:"instance_id,omitempty"`
	// Pressure is bytes-in-use over online capacity, 0..1.
	Pressure float64 `json:"pressure"`
	// ShedWatermark is the configured admission-control watermark
	// (0 = shedding disabled).
	ShedWatermark float64 `json:"shed_watermark,omitempty"`
	// Journal is the WAL path, when durability is enabled.
	Journal string       `json:"journal,omitempty"`
	Nodes   []NodeHealth `json:"nodes"`
}

// Request bodies decode in two steps. The hot shapes — alloc, batch
// alloc, free and lease detail, renew — first meet a jsonenc.Scanner,
// which reads the canonical spelling every client in this repository
// sends without reflection or a second buffer. Whatever it declines, and every other
// shape, goes to decodeStrict, which is the definition of what the
// daemon accepts and of the error a client sees; the scanner only ever
// agrees with it (FuzzScanMatchesJSON holds it to that).

// decodeStrict decodes one JSON value with encoding/json: unknown
// fields are rejected, and so is anything but whitespace after the
// value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Not dec.More(): that is false in front of a stray } or ].
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after JSON value", ErrBadRequest)
	}
	return nil
}

// decodeBody decodes and validates a request body held in memory,
// bounded by MaxRequestBytes: scan's reading when it accepts,
// decodeStrict's otherwise. A nil scan means the shape has no scanner,
// a nil validate that any decoded value stands.
func decodeBody[T any](data []byte, scan func([]byte) (T, bool), validate func(T) error) (T, error) {
	var zero T
	if len(data) > MaxRequestBytes {
		return zero, fmt.Errorf("%w: body over %d bytes", ErrBadRequest, MaxRequestBytes)
	}
	var (
		req T
		ok  bool
	)
	if scan != nil {
		req, ok = scan(data)
	}
	if !ok {
		var slow T // apart from req, so that only the fallback pays for its escape
		if err := decodeStrict(data, &slow); err != nil {
			return zero, err
		}
		req = slow
	}
	if validate != nil {
		if err := validate(req); err != nil {
			return zero, err
		}
	}
	return req, nil
}

// readRequest slurps r into the pooled buffer bp, stopping once it is
// over MaxRequestBytes. The decoders copy what they keep, so the caller
// may pool the buffer again as soon as the body is decoded.
func readRequest(r io.Reader, bp *[]byte) ([]byte, error) {
	data := *bp
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		*bp = data
		if len(data) > MaxRequestBytes {
			return nil, fmt.Errorf("%w: body over %d bytes", ErrBadRequest, MaxRequestBytes)
		}
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
}

var allocRequestKeys = []string{"name", "size", "attr", "initiator", "policy",
	"partial", "remote", "idempotency_key", "ttl_seconds"}

func scanAllocRequest(data []byte) (req AllocRequest, ok bool) {
	s := jsonenc.Scan(data)
	if !scanAllocRequestFields(&s, &req) {
		return AllocRequest{}, false
	}
	return req, true
}

// scanAllocRequestFields reads the members of one AllocRequest object
// the Scanner is in — a /v1/alloc body or a batch item — and reports
// whether it closed without a decline.
func scanAllocRequestFields(s *jsonenc.Scanner, req *AllocRequest) bool {
	for {
		switch s.Next(allocRequestKeys) {
		case 0:
			req.Name = s.String()
		case 1:
			req.Size = s.Uint()
		case 2:
			req.Attr = s.String()
		case 3:
			req.Initiator = s.String()
		case 4:
			req.Policy = s.String()
		case 5:
			req.Partial = s.Bool()
		case 6:
			req.Remote = s.Bool()
		case 7:
			req.IdempotencyKey = s.String()
		case 8:
			req.TTLSeconds = s.Float()
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

// scanObjects reads the array of objects the Scanner stands on into
// *dst, each element's members with fields.
func scanObjects[T any](s *jsonenc.Scanner, dst *[]T, fields func(*jsonenc.Scanner, *T) bool) bool {
	s.Array()
	*dst = []T{} // [] is empty, not nil, as in encoding/json
	for s.Elem() {
		var zero T
		*dst = append(*dst, zero)
		s.Object()
		if !fields(s, &(*dst)[len(*dst)-1]) {
			return false
		}
	}
	return true
}

var batchRequestKeys = []string{"requests"}

// scanBatchAllocRequest reads {"requests":[item,...]}. One declined
// item declines the whole body, which then decodes the slow way.
func scanBatchAllocRequest(data []byte) (req BatchAllocRequest, ok bool) {
	s := jsonenc.Scan(data)
	for {
		switch s.Next(batchRequestKeys) {
		case 0:
			if !scanObjects(&s, &req.Requests, scanAllocRequestFields) {
				return BatchAllocRequest{}, false
			}
		case jsonenc.End:
			return req, true
		default:
			return BatchAllocRequest{}, false
		}
	}
}

var renewKeys = []string{"lease", "ttl_seconds"}

// scanRenew reads the two-member shape RenewRequest and RenewResponse
// share.
func scanRenew(data []byte) (req RenewRequest, ok bool) {
	s := jsonenc.Scan(data)
	for {
		switch s.Next(renewKeys) {
		case 0:
			req.Lease = s.Uint()
		case 1:
			req.TTLSeconds = s.Float()
		case jsonenc.End:
			return req, true
		default:
			return RenewRequest{}, false
		}
	}
}

// scanFreeRequest reads {"lease":N}, the body of a free and of the
// binary transport's lease detail.
func scanFreeRequest(data []byte) (req FreeRequest, ok bool) {
	s := jsonenc.Scan(data)
	for {
		switch s.Next(renewKeys[:1]) {
		case 0:
			req.Lease = s.Uint()
		case jsonenc.End:
			return req, true
		default:
			return FreeRequest{}, false
		}
	}
}

var allocResponseKeys = []string{"lease", "placement", "attr_used", "attr_fell_back",
	"rank", "partial", "remote", "ttl_seconds", "tenant", "advice"}

func scanAllocResponse(data []byte) (resp AllocResponse, ok bool) {
	s := jsonenc.Scan(data)
	if !scanAllocResponseFields(&s, &resp) {
		return AllocResponse{}, false
	}
	return resp, true
}

// scanAllocResponseFields reads the members of one AllocResponse
// object: an /v1/alloc answer or a batch item's alloc.
func scanAllocResponseFields(s *jsonenc.Scanner, resp *AllocResponse) bool {
	for {
		switch s.Next(allocResponseKeys) {
		case 0:
			resp.Lease = s.Uint()
		case 1:
			resp.Placement = s.String()
		case 2:
			resp.AttrUsed = s.String()
		case 3:
			resp.AttrFellBack = s.Bool()
		case 4:
			resp.Rank = s.Int()
		case 5:
			resp.Partial = s.Bool()
		case 6:
			resp.Remote = s.Bool()
		case 7:
			resp.TTLSeconds = s.Float()
		case 8:
			resp.Tenant = s.String()
		case 9:
			resp.Advice = s.String()
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

var errorBodyKeys = []string{"code", "message", "retryable", "retry_after_seconds"}

// scanErrorBodyFields reads the members of one v1 error envelope, as
// a batch item carries it.
func scanErrorBodyFields(s *jsonenc.Scanner, e *ErrorBody) bool {
	for {
		switch s.Next(errorBodyKeys) {
		case 0:
			e.Code = s.String()
		case 1:
			e.Message = s.String()
		case 2:
			e.Retryable = s.Bool()
		case 3:
			e.RetryAfterSeconds = s.Int()
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

var (
	batchResponseKeys = []string{"results", "succeeded", "failed"}
	batchItemKeys     = []string{"alloc", "error"}
)

// scanBatchAllocResponse reads a /v1/alloc/batch answer, alloc and
// error items alike. One declined item declines the whole body.
func scanBatchAllocResponse(data []byte) (resp BatchAllocResponse, ok bool) {
	s := jsonenc.Scan(data)
	for {
		switch s.Next(batchResponseKeys) {
		case 0:
			if !scanObjects(&s, &resp.Results, scanBatchAllocItemFields) {
				return BatchAllocResponse{}, false
			}
		case 1:
			resp.Succeeded = s.Int()
		case 2:
			resp.Failed = s.Int()
		case jsonenc.End:
			return resp, true
		default:
			return BatchAllocResponse{}, false
		}
	}
}

func scanBatchAllocItemFields(s *jsonenc.Scanner, it *BatchAllocItem) bool {
	for {
		switch s.Next(batchItemKeys) {
		case 0:
			it.Alloc = new(AllocResponse)
			s.Object()
			if !scanAllocResponseFields(s, it.Alloc) {
				return false
			}
		case 1:
			it.Error = new(ErrorBody)
			s.Object()
			if !scanErrorBodyFields(s, it.Error) {
				return false
			}
		case jsonenc.End:
			return true
		default:
			return false
		}
	}
}

// DecodeAllocRequest parses a /v1/alloc body. It only parses: the
// backend refuses a malformed request (ValidateAllocRequest), so the
// refusal is counted wherever the request came from.
func DecodeAllocRequest(r io.Reader) (AllocRequest, error) {
	bp := getReqBuf()
	defer putReqBuf(bp)
	data, err := readRequest(r, bp)
	if err != nil {
		return AllocRequest{}, err
	}
	return decodeAllocRequest(data)
}

func decodeAllocRequest(data []byte) (AllocRequest, error) {
	return decodeBody(data, scanAllocRequest, nil)
}

// ValidateAllocRequest applies the field checks of /alloc and of each
// /alloc/batch item. The daemon runs it in place, for both; a router
// runs it before it forwards.
func ValidateAllocRequest(req AllocRequest) error {
	if req.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadRequest)
	}
	if req.Size == 0 {
		return fmt.Errorf("%w: size must be > 0", ErrBadRequest)
	}
	// An empty Attr is not rejected here: when the tiering advisor is
	// running, the daemon fills it with the advisor's advice for the
	// buffer name (see place). Without an advisor it is still an
	// error, enforced at placement time.
	switch req.Policy {
	case "", "preferred", "bind":
	default:
		return fmt.Errorf("%w: unknown policy %q", ErrBadRequest, req.Policy)
	}
	if req.TTLSeconds < 0 {
		return fmt.Errorf("%w: negative ttl_seconds", ErrBadRequest)
	}
	return checkInitiator(req.Initiator)
}

// decodeBatchAllocRequest parses a /v1/alloc/batch body. Envelope
// problems (bad JSON, empty, oversized) are batch-level errors; item
// field validation is per-item and happens in the backend, so one bad
// item cannot veto its siblings.
func decodeBatchAllocRequest(data []byte) (BatchAllocRequest, error) {
	return decodeBody(data, scanBatchAllocRequest, validateBatchAllocRequest)
}

func validateBatchAllocRequest(req BatchAllocRequest) error {
	if len(req.Requests) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if len(req.Requests) > MaxBatchAllocs {
		return fmt.Errorf("%w: batch of %d exceeds %d items",
			ErrBadRequest, len(req.Requests), MaxBatchAllocs)
	}
	return nil
}

func decodeFreeRequest(data []byte) (FreeRequest, error) {
	return decodeBody(data, scanFreeRequest, validateFreeRequest)
}

func validateFreeRequest(req FreeRequest) error {
	if req.Lease == 0 {
		return fmt.Errorf("%w: missing lease", ErrBadRequest)
	}
	return nil
}

func decodeRenewRequest(data []byte) (RenewRequest, error) {
	return decodeBody(data, scanRenew, validateRenewRequest)
}

func validateRenewRequest(req RenewRequest) error {
	if req.Lease == 0 {
		return fmt.Errorf("%w: missing lease", ErrBadRequest)
	}
	if req.TTLSeconds < 0 {
		return fmt.Errorf("%w: negative ttl_seconds", ErrBadRequest)
	}
	return nil
}

func decodeMigrateRequest(data []byte) (MigrateRequest, error) {
	return decodeBody(data, nil, func(req MigrateRequest) error {
		if req.Lease == 0 {
			return fmt.Errorf("%w: missing lease", ErrBadRequest)
		}
		if req.Attr == "" {
			return fmt.Errorf("%w: missing attr", ErrBadRequest)
		}
		return checkInitiator(req.Initiator)
	})
}

// checkInitiator validates a request's cpuset list, building no bitmap;
// empty means "the caller did not say", which handlers widen to the
// whole machine. A daemon parses the list in Server.resolveInitiator.
func checkInitiator(s string) error {
	if s == "" {
		return nil
	}
	return initiatorError(s, bitmap.CheckList(s))
}

// initiatorError is the 400 for a non-empty cpuset list s, given the
// scanner's verdict on it, or for a list of blanks.
func initiatorError(s string, err error) error {
	if err != nil {
		return fmt.Errorf("%w: initiator: %v", ErrBadRequest, err)
	}
	if strings.TrimSpace(s) == "" {
		return fmt.Errorf("%w: empty initiator cpuset", ErrBadRequest)
	}
	return nil
}
