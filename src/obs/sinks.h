// The one observability handle. Every component takes `const Sinks&` as the
// last constructor parameter and keeps what it uses: tracers and event logs
// are cached as pointers, metric providers are registered against the
// host's registry, and the profiler ledger pointer is taken once with
// LedgerFor. A null field turns that pillar off for the component; the
// default-constructed handle turns all four off.
//
// Components that own nested RPC clients (WAL, backing-store fetches, the
// µproxy's own calls) hand the same handle down, so a retransmit or give-up
// on a nested call lands in the same event log as the request that caused
// it.
#ifndef SLICE_OBS_SINKS_H_
#define SLICE_OBS_SINKS_H_

namespace slice::obs {

class Tracer;
class Metrics;
class EventLog;
class Profiler;

struct Sinks {
  Tracer* tracer = nullptr;
  Metrics* metrics = nullptr;
  EventLog* eventlog = nullptr;
  Profiler* profiler = nullptr;
};

}  // namespace slice::obs

#endif  // SLICE_OBS_SINKS_H_
