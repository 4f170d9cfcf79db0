// Reconstructible event continuations (DESIGN.md §13).
//
// Every simulator event is data: a scheduling component registers itself
// under a stable component id and schedules (component_id, kind, payload)
// descriptors. The simulator stores the descriptor in the event slot,
// dispatches it through the registry when the event fires, and — because
// the descriptor is plain data — serializes the live heap into the LMSNAP1
// `event_heap` section so a restore can re-mint every pending event directly
// from the blob.
//
// Components implement two entry points:
//
//   RunContinuation(kind, payload)          — the event fired; run its
//                                             body.
//   RestoreContinuation(kind, payload, at)  — a snapshot adoption replays
//                                             this pending event; re-schedule
//                                             it at `at` through the usual
//                                             Schedule*Continuation call and
//                                             re-seat any EventId bookkeeping
//                                             the component keeps for it.
//
// Payloads are a fixed 32-byte POD. State that does not fit (a casualty
// list, full iteration stats) lives in a serialized side-table owned by the
// component, and the payload carries the key.
#ifndef LAMINAR_SRC_SIM_CONTINUATION_H_
#define LAMINAR_SRC_SIM_CONTINUATION_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sim_time.h"

namespace laminar {

// Fixed-size continuation argument block. Doubles travel bit-cast through
// the int64 fields so the round trip is exact.
struct ContinuationPayload {
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  int64_t d = 0;

  static ContinuationPayload Of(int64_t a, int64_t b = 0, int64_t c = 0,
                                int64_t d = 0) {
    return ContinuationPayload{a, b, c, d};
  }
  static int64_t FromF64(double v) { return std::bit_cast<int64_t>(v); }
  static double ToF64(int64_t v) { return std::bit_cast<double>(v); }
};

// What an event slot stores: who runs it and with what arguments. Every
// scheduled event names a registered component (comp >= 0).
struct ContinuationDesc {
  int32_t comp = -1;
  uint16_t kind = 0;
  ContinuationPayload payload;
};

// Component-id layout: (family << 16) | instance. Families are the fixed
// set of scheduling components; instance is the replica id for per-replica
// clients and 0 elsewhere.
enum ContinuationFamily : int32_t {
  kContFamilySystem = 0,     // Laminar system driver
  kContFamilyTrainer = 1,
  kContFamilyRelayTier = 2,
  kContFamilyManager = 3,
  kContFamilyHeartbeat = 4,
  kContFamilyInjector = 5,
  kContFamilyReplica = 6,    // instance = replica id
  kContFamilyDriver = 7,     // DriverBase: rate sampler tick, baseline kinds
  kContFamilyCount = 8,
};

constexpr int32_t ContinuationComponentId(ContinuationFamily family,
                                          int instance = 0) {
  return (static_cast<int32_t>(family) << 16) | instance;
}

class ContinuationClient {
 public:
  virtual ~ContinuationClient() = default;
  virtual void RunContinuation(uint16_t kind, const ContinuationPayload& p) = 0;
  virtual void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                   SimTime at) = 0;
};

// Flat family/instance lookup table: resolving a descriptor on the event
// hot path is two array indexes, no hashing.
class ContinuationRegistry {
 public:
  ContinuationRegistry() : families_(kContFamilyCount) {}

  void Register(int32_t comp, ContinuationClient* client) {
    auto& fam = FamilyOf(comp);
    size_t idx = static_cast<size_t>(comp & 0xFFFF);
    if (fam.size() <= idx) {
      fam.resize(idx + 1, nullptr);
    }
    LAMINAR_CHECK(fam[idx] == nullptr || fam[idx] == client)
        << "continuation component " << comp << " registered twice";
    fam[idx] = client;
  }

  void Unregister(int32_t comp) {
    auto& fam = FamilyOf(comp);
    size_t idx = static_cast<size_t>(comp & 0xFFFF);
    if (idx < fam.size()) {
      fam[idx] = nullptr;
    }
  }

  ContinuationClient* Find(int32_t comp) const {
    size_t f = static_cast<size_t>(comp >> 16);
    size_t idx = static_cast<size_t>(comp & 0xFFFF);
    if (f >= families_.size() || idx >= families_[f].size()) {
      return nullptr;
    }
    return families_[f][idx];
  }

  ContinuationClient& Require(int32_t comp) const {
    ContinuationClient* c = Find(comp);
    LAMINAR_CHECK(c != nullptr) << "no continuation client for component " << comp;
    return *c;
  }

  void Run(int32_t comp, uint16_t kind, const ContinuationPayload& p) const {
    Require(comp).RunContinuation(kind, p);
  }

 private:
  std::vector<ContinuationClient*>& FamilyOf(int32_t comp) {
    size_t f = static_cast<size_t>(comp >> 16);
    LAMINAR_CHECK_LT(f, families_.size()) << "bad continuation family";
    return families_[f];
  }

  std::vector<std::vector<ContinuationClient*>> families_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_SIM_CONTINUATION_H_
