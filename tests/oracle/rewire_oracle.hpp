#pragma once

// Test-only reference implementation of the structural repairs. The
// production Rewirer asks "would this reconnection close a cycle?" with
// one backward walk (Rsn::reaches) before it edits the network; the
// oracle below makes each edit, probes the whole network with
// is_acyclic(), and undoes the edit when the probe fails. It also keeps
// its own per-element fanout lists for the pre-cut successor set. Both
// must produce the same network, element for element, and the same
// operation count.

#include "rsn/rsn.hpp"
#include "security/rewire.hpp"

namespace rsnsec::oracle {

/// Rewirer::cut_connection by connect -> is_acyclic() -> undo probes.
int cut_connection(rsn::Rsn& network, const security::Connection& c,
                   rsn::ElemId reconnect_hint = rsn::no_elem);

/// Rewirer::isolate_register_output by connect -> is_acyclic() -> undo
/// probes.
int isolate_register_output(rsn::Rsn& network, rsn::ElemId reg);

}  // namespace rsnsec::oracle
