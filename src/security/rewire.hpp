#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rsn/access.hpp"
#include "rsn/rsn.hpp"
#include "util/slot_pool.hpp"

namespace rsnsec {
class ThreadPool;
}

namespace rsnsec::security {

/// Candidate-selection strategy of the resolution loops (pure and
/// hybrid). [17] generates multiple repair candidates per violation and
/// applies the cheapest; the strategies below trade repair quality
/// against trial-evaluation cost (see `rsnsec bench policy`).
enum class ResolutionPolicy : std::uint8_t {
  /// Evaluate every (cut, reconnect) candidate; apply the one leaving the
  /// fewest violating pairs, breaking ties by wiring cost. Default.
  BestGlobal,
  /// Apply the first candidate that reduces the violating-pair count
  /// (path order). Fewer trial propagations, possibly more changes.
  FirstImproving,
  /// Like FirstImproving, but try the reconnect-to-scan-in variant first
  /// (aggressively isolating upstream flow).
  PreferScanIn
};

/// Execution options of the detect-and-resolve loops (pure and hybrid).
struct ResolveOptions {
  /// Worker threads for candidate trial evaluation. 0 = auto: RSNSEC_JOBS
  /// if set, else hardware concurrency. Any value yields bit-identical
  /// results (in-order selection). Ignored when `pool` is set.
  std::size_t num_threads = 0;
  /// External thread pool for the trial evaluation (not owned; must
  /// outlive the resolve call). When set, the loops run on it instead of
  /// constructing a private pool — the serve scheduler shares one pool
  /// across every concurrent request, so total worker threads stay
  /// bounded by the machine, not by tenant count. Safe because
  /// ThreadPool's loops are caller-participating and independent batches
  /// from different requests interleave without blocking each other.
  ThreadPool* pool = nullptr;
};

/// One concrete RSN connection (driver `from` feeding input `port` of
/// `to`), the unit the resolution step cuts.
struct Connection {
  rsn::ElemId from = rsn::no_elem;
  rsn::ElemId to = rsn::no_elem;
  std::size_t port = 0;

  bool operator==(const Connection&) const = default;
};

/// Record of one applied repair (for reporting and the #Applied-Changes
/// columns of Table I).
struct AppliedChange;

/// Observer the resolution loops invoke after each applied change, with
/// the already-modified network. SecureFlowTool uses it to run the lint
/// invariant pass after every rewire (PipelineOptions::verify);
/// exceptions thrown from the callback abort the resolution.
using ChangeCallback =
    std::function<void(const rsn::Rsn&, const AppliedChange&)>;

struct AppliedChange {
  enum class Kind : std::uint8_t { CutConnection, IsolateRegister };
  Kind kind = Kind::CutConnection;
  Connection cut;             ///< for CutConnection
  rsn::ElemId isolated = rsn::no_elem;  ///< for IsolateRegister
  int rewire_operations = 0;  ///< individual wiring edits performed
  std::string note;
};

/// Structural repair operations on an RSN, implementing the reconnection
/// rules of Sec. III-D:
///  - segments never dangle: a register (or the scan-out port) that loses
///    its driver is reconnected to a pre-cut multi-cycle predecessor that
///    does not create a cycle, else to the scan-in port;
///  - an element that loses all fanout is attached to a pre-cut
///    multi-cycle successor (adding a mux input, or inserting a fresh
///    2:1 mux in front of a register), else routed to the scan-out port;
///  - the scan network stays cycle-free and keeps every scan register.
class Rewirer {
 public:
  /// Reusable buffers of the cuts one thread makes (the lazy pre-cut
  /// walks' marks and stack; a cut's walks run one after the other).
  /// Never share an instance between threads.
  struct Scratch {
    std::vector<std::uint32_t> seen;
    std::vector<rsn::ElemId> stack;
    std::uint32_t epoch = 0;
    /// Cycle checks the committed rank could not decide, so they walked
    /// (Rsn::reaches); accumulated over cuts until the caller resets it.
    std::size_t cycle_walks = 0;
  };

  /// Cuts `c` from `network` and repairs both sides. Returns the number of
  /// individual wiring operations performed (>= 1). `network` must be
  /// acyclic. Snapshots `network` into a CommittedView and cuts with the
  /// overload below.
  ///
  /// `reconnect_hint` selects the new driver for a dangling to-side input:
  /// by default the first multi-cycle predecessor that keeps the network
  /// acyclic is chosen; passing the scan-in port (or another element)
  /// forces that driver instead. The resolution loop evaluates both
  /// variants as separate repair candidates ([17]: "multiple candidates
  /// to resolve that violation were generated and evaluated").
  static int cut_connection(rsn::Rsn& network, const Connection& c,
                            rsn::ElemId reconnect_hint = rsn::no_elem);

  /// The same cut, on a `network` equal to `view.network()` (a trial copy
  /// of the committed network, or the committed network itself). The
  /// pre-cut fanout count comes from the view's index, and the pre-cut
  /// predecessor and successor sets are walked lazily over the view in
  /// Rsn::reaching / Rsn::reachable_from discovery order, so a repair
  /// that stops at its first acceptable candidate visits little else.
  /// Each repair tests for a cycle before it edits: "no path" is proved
  /// by rank without a walk when it can be, else answered by one
  /// backward walk (Rsn::reaches), counted in `scratch.cycle_walks`.
  static int cut_connection(rsn::Rsn& network, const rsn::CommittedView& view,
                            const Connection& c, rsn::ElemId reconnect_hint,
                            Scratch& scratch);

  /// True if cut_connection(view.network(), c, hint) produces the same
  /// network for every hint (the cut shrinks a multi-input mux and does
  /// not orphan its source, so no dangling-input repair consults the
  /// hint). The selection loops evaluate such cuts once instead of per
  /// hint.
  static bool cut_is_hint_insensitive(const rsn::CommittedView& view,
                                      const Connection& c);

  /// Removes every outgoing connection of register `reg` and routes its
  /// output directly to the scan-out port; downstream dangling inputs are
  /// repaired. This is the guaranteed-progress fallback of the resolution
  /// loop: after isolation no data can leave `reg` over the scan
  /// infrastructure. Returns the number of wiring operations.
  static int isolate_register_output(rsn::Rsn& network, rsn::ElemId reg);

  /// All current connections of `network`.
  static std::vector<Connection> all_connections(const rsn::Rsn& network);

  /// Outcome of trial-evaluating repair candidates.
  struct Selection {
    bool found = false;
    Connection cut;
    rsn::ElemId reconnect_hint = rsn::no_elem;
    std::size_t residual_pairs = 0;
    int operations = 0;
  };

  /// Counts the violating pairs of one trial network. Instances returned
  /// by a TrialCounterFactory may carry scratch state; each instance is
  /// used by one thread at a time.
  using TrialCounter = std::function<std::size_t(const rsn::Rsn&)>;
  /// Called once per trial slot (see TrialSlots); the returned counter is
  /// reused for every trial run in that slot.
  using TrialCounterFactory = std::function<TrialCounter()>;

  /// The trial workspaces of one resolution run: the selections over one
  /// committed view share them. A slot holds a working copy of the view's
  /// network, a cut Scratch and a counter (with its scratch), and outlives
  /// the selections: work chunks claim slots from a SlotPool, so there are
  /// never more slots than chunks that ran at once. A claimed slot whose
  /// copy predates the view's generation is re-synced by copy-assignment,
  /// which reuses its element buffers. Which slot a chunk gets depends on
  /// scheduling; every buffer a trial reads is reset or overwritten first,
  /// so results do not. Must not outlive `view`.
  class TrialSlots {
   public:
    TrialSlots(const rsn::CommittedView& view,
               TrialCounterFactory make_counter);
    TrialSlots(const TrialSlots&) = delete;
    TrialSlots& operator=(const TrialSlots&) = delete;
    ~TrialSlots();

    /// Slots created so far.
    std::size_t size() const;

   private:
    friend class Rewirer;
    struct Slot;
    /// Claims a free slot (or creates one) whose working copy equals the
    /// view's network, re-syncing it if stale.
    Slot& acquire();
    void release(Slot& slot);

    const rsn::CommittedView& view_;
    const TrialCounterFactory make_counter_;
    SlotPool<Slot> pool_;
  };

  /// Trial-evaluates cutting each candidate (with both reconnection
  /// variants, a hint-insensitive cut once) from the committed network
  /// `view.network()` and selects per `policy`. Only candidates that
  /// strictly reduce the violating-pair count below `current_pairs`
  /// qualify. Every (cut, reconnect) candidate is evaluated concurrently
  /// on `pool`, then the selection scans the results in nested
  /// (candidate, hint) order — so for every policy the returned Selection
  /// is the one a sequential first-to-last evaluation would pick, at any
  /// thread count. (FirstImproving/PreferScanIn evaluate trials past the
  /// one selected; only side-effect-free counters may observe that.) Each
  /// work chunk claims one of `slots` (built over `view`); a trial cuts
  /// the slot's working copy against `view`, is counted, and is rolled
  /// back with Rsn::restore, so counters see a network equal to a fresh
  /// copy with the cut applied, whose edit record lists what the cut
  /// changed.
  static Selection select_cut_parallel(
      const rsn::CommittedView& view,
      const std::vector<Connection>& candidates, TrialSlots& slots,
      std::size_t current_pairs, ResolutionPolicy policy, ThreadPool& pool);
};

}  // namespace rsnsec::security
