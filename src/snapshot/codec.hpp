// Field-by-field codec for the telemetry sink payloads checkpoint slot
// blobs carry.  The deployment engine composes it into its per-task blobs
// (multicell/deployment.cpp); keeping the codec here keeps the fixed-width
// little-endian discipline — and the lint that enforces it — in one place.
#pragma once

#include "snapshot/format.hpp"
#include "telemetry/sink.hpp"

namespace nbmg::snapshot {

/// Everything a sink recorded: trace records, dense counters, the three
/// bucketed series.  Config and stratum are identity (recreated by the
/// resuming run), not payload.
void put_sink(Writer& w, const telemetry::CampaignSink& sink);

/// Decodes a put_sink payload into `sink` via CampaignSink::restore.
/// Throws SnapshotError on out-of-range event kinds.
void restore_sink(Reader& r, telemetry::CampaignSink& sink);

}  // namespace nbmg::snapshot
