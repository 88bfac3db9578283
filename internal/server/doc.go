// Package server implements the H-DivExplorer exploration service: an
// http.Handler that loads CSV datasets once at startup and answers
// exploration requests over them.
//
// Endpoints:
//
//	POST /v1/explore   run an exploration; JSON request, JSON or CSV reply
//	GET  /v1/datasets  list the loaded datasets with their schemas
//	GET  /healthz      liveness probe
//	GET  /metrics      server counters in Prometheus text exposition format
//
// The expensive, request-independent pipeline stages — statistic
// construction, divergence-aware tree discretization and item-universe
// precomputation — are cached per (dataset, statistic columns, excluded
// label columns, split criterion, tree support st). The first request with a given key builds
// the entry in a detached goroutine; concurrent requests for the same key
// share that single build, and every later request skips straight to
// mining. Mining writes a universe only to keep its root FP-tree, which
// it publishes whole and atomically, and a cancelled or timed-out request
// keeps none, so it leaves the cached entry intact.
//
// Each exploration honours the request context: client disconnects and
// per-request timeouts cancel mining at candidate granularity. A bounded
// semaphore caps concurrent explorations; requests beyond the cap are
// rejected immediately with 429 rather than queued, so saturation is
// visible to callers and the server's memory stays bounded.
package server
