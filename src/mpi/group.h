// Communicator groups: the shared, immutable membership of one
// communicator instance, plus the revocation token ULFM uses to
// interrupt in-flight operations.
//
// In a real MPI these structures are replicated per process and kept
// consistent by the runtime; in the simulation the replicas are one
// shared object obtained through a deterministic GroupCache (all ranks
// deriving the same key get the same instance).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coll/rendezvous.h"
#include "sim/fabric.h"

namespace rcc::mpi {

struct CommGroup {
  uint64_t ctx_id = 0;
  std::vector<int> pids;  // rank -> pid, immutable after creation
  sim::CancelToken revoke;
  // Slot table of the fixed-schedule collectives of this group's
  // communicators (declared fibers fabrics; see coll/rendezvous.h).
  coll::Rendezvous rendezvous;

  int RankOfPid(int pid) const {
    for (size_t r = 0; r < pids.size(); ++r) {
      if (pids[r] == pid) return static_cast<int>(r);
    }
    return -1;
  }
};

// Allocates globally unique communicator context ids.
uint64_t AllocateContextId();

// Deterministic rendezvous for group creation: every rank computing the
// same key receives the same CommGroup instance (the first caller
// constructs it from `pids`).
std::shared_ptr<CommGroup> GetOrCreateGroup(const std::string& key,
                                            const std::vector<int>& pids);

// Builds a cache key for a derived communicator.
std::string GroupKey(uint64_t parent_ctx, const std::string& op,
                     const std::vector<int>& pids);

}  // namespace rcc::mpi
