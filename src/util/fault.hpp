// Fault-injection hooks for the serving stack's chaos tests.
//
// A fault spec is a comma-separated list of sites, each optionally carrying
// a value and a trigger budget:
//
//     site            fire every time the site is checked
//     site=V          fire every time; value(site) returns V
//     site:K          fire the first K checks, then disarm the site
//     site=V:K        both
//
// The spec comes from the REPRO_FAULT environment variable (read once, at
// first use) or from configure() — the in-process override the chaos tests
// use. Known sites:
//
//     snap_open        Snapshot::open refuses before touching the file
//     snap_mmap        Snapshot::open behaves as if mmap failed
//     snap_checksum    Snapshot::open computes a corrupted digest
//     swap_stall_ms    SnapshotManager::swap sleeps V ms before publishing
//                      (widens the mid-swap window for kill tests)
//     worker_stall_ms  the thread that runs a query-engine batch (a waiting
//                      client or the batch worker) sleeps V ms per batch
//     ring_full        QueryEngine::try_submit_ex reports a full ring
//     compact_emit     Compactor::compact_now fails before writing the new
//                      snapshot (freeze is aborted, old epoch keeps serving)
//     compact_swap     Compactor::compact_now fails after writing but before
//                      publishing (the partial file is removed, never served)
//     delta_oom        DeltaLayer::apply throws DeltaFullError (the typed
//                      OVERLOAD write-shed path)
//
// Cost when off: every hook is guarded by armed(), a single relaxed load of
// an atomic bool that is false unless a spec is active — no parsing, no
// locks, no string compares on the hot path.
#pragma once

#include <cstdint>
#include <string>

namespace repro::util::fault {

/// True iff any fault site is configured. The only check hot paths pay.
bool armed();

/// True iff `site` is configured with trigger budget remaining; consumes
/// one trigger from a ":K" budget. Call only under armed().
bool fire(const char* site);

/// The "=V" value of `site` (whether or not its budget is spent), or `def`
/// when the site is absent or has no value.
std::uint64_t value(const char* site, std::uint64_t def = 0);

/// Times `site` has fired so far (for test observability).
std::uint64_t hits(const char* site);

/// Replaces the active spec ("" disarms everything). Overrides REPRO_FAULT.
void configure(const std::string& spec);

/// Convenience for "*_stall_ms" sites: if `site` fires, sleeps its value in
/// milliseconds. No-op when unarmed.
void maybe_stall(const char* site);

}  // namespace repro::util::fault
