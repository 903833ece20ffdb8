package gen

import (
	"time"

	"repro/internal/model"
)

// Options parameterize backend construction through the registry. Each
// backend reads the fields it needs and ignores the rest.
type Options struct {
	// Family configures the simulated-model substrate (corpus scale, seed,
	// sampler choice) for the family backend.
	Family model.Config

	// ReplayPath is the JSONL recording served by the replay backend.
	ReplayPath string

	// Remote configures the HTTP remote backend (internal/remote).
	Remote RemoteOptions
}

// RemoteOptions configure the remote backend's transport. The struct
// lives here (not in internal/remote) so registry users select the
// backend by name without importing the transport package; internal/remote
// reads it in its factory. Zero values mean "transport default":
// remote.NewTransport resolves them into its own copy (see the default*
// constants in internal/remote for the numbers).
type RemoteOptions struct {
	// Endpoint is the completion service base URL (http://host:port).
	// Required: the factory fails without it.
	Endpoint string

	// AuthToken, when non-empty, is sent as a bearer token and must match
	// the server's configured token. CLIs read it from an env var
	// (-auth-env) so tokens never land in argv or shell history.
	AuthToken string

	// Timeout bounds one HTTP attempt; Budget bounds the whole sweep
	// (every request shares the budget deadline; a request past it fails
	// without retrying).
	Timeout time.Duration
	Budget  time.Duration

	// MaxAttempts is the per-request attempt budget; BackoffBase doubles
	// per attempt up to BackoffCap, deterministically jittered from
	// (Seed, request coordinates, attempt).
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// MaxInFlight bounds concurrent HTTP requests across the whole
	// transport, independent of the evaluation pool width.
	MaxInFlight int

	// BreakerThreshold consecutive transport failures trip the endpoint's
	// circuit breaker; after BreakerCooldown it half-opens for one probe.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Seed feeds the deterministic backoff jitter; use the sweep seed.
	Seed int64
}
