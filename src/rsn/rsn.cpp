#include "rsn/rsn.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "util/cycle_search.hpp"

namespace rsnsec::rsn {

Rsn::Rsn(std::string name) : name_(std::move(name)) {
  scan_in_ = static_cast<ElemId>(elems_.size());
  elems_.push_back({ElemKind::ScanIn, "scan_in", {}, 0, {}, netlist::no_module});
  scan_out_ = static_cast<ElemId>(elems_.size());
  elems_.push_back({ElemKind::ScanOut,
                    "scan_out",
                    {no_elem},
                    0,
                    {},
                    netlist::no_module});
}

namespace {

/// `dst = src`, growing `dst`'s storage geometrically when it must grow.
template <typename T>
void assign_growing(std::vector<T>& dst, const std::vector<T>& src) {
  if (src.size() > dst.capacity())
    dst.reserve(std::max(src.size(), 2 * dst.capacity()));
  dst = src;  // within capacity: assigns and constructs in place
}

}  // namespace

Rsn& Rsn::operator=(const Rsn& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  assign_growing(elems_, other.elems_);
  assign_growing(registers_, other.registers_);
  assign_growing(muxes_, other.muxes_);
  scan_in_ = other.scan_in_;
  scan_out_ = other.scan_out_;
  next_auto_mux_ = other.next_auto_mux_;
  edits_ = other.edits_;  // clears the record
  return *this;
}

ElemId Rsn::add_register(std::string name, std::size_t n_ffs,
                         netlist::ModuleId module) {
  if (n_ffs == 0) throw std::invalid_argument("register needs >= 1 scan FF");
  auto id = static_cast<ElemId>(elems_.size());
  Element e;
  e.kind = ElemKind::Register;
  e.name = std::move(name);
  e.inputs.assign(1, no_elem);
  e.module = module;
  e.ffs.resize(n_ffs);
  for (std::size_t i = 0; i < n_ffs; ++i)
    e.ffs[i].name = e.name + "[" + std::to_string(i) + "]";
  elems_.push_back(std::move(e));
  registers_.push_back(id);
  return id;
}

ElemId Rsn::add_mux(std::string name, std::size_t n_inputs) {
  if (n_inputs < 2) throw std::invalid_argument("mux needs >= 2 inputs");
  auto id = static_cast<ElemId>(elems_.size());
  Element e;
  e.kind = ElemKind::Mux;
  e.name = std::move(name);
  e.inputs.assign(n_inputs, no_elem);
  elems_.push_back(std::move(e));
  muxes_.push_back(id);
  return id;
}

void Rsn::connect(ElemId from, ElemId to, std::size_t port) {
  Element& t = mut(to);
  if (t.kind == ElemKind::ScanIn)
    throw std::invalid_argument("scan-in port has no inputs");
  if (port >= t.inputs.size())
    throw std::out_of_range("no such input port on '" + t.name + "'");
  t.inputs[port] = from;
  note_edit(to);
}

void Rsn::disconnect(ElemId to, std::size_t port) {
  Element& t = mut(to);
  if (port >= t.inputs.size())
    throw std::out_of_range("no such input port on '" + t.name + "'");
  t.inputs[port] = no_elem;
  note_edit(to);
}

void Rsn::remove_mux_input(ElemId mux, std::size_t port) {
  Element& m = mut(mux);
  assert(m.kind == ElemKind::Mux);
  if (port >= m.inputs.size())
    throw std::out_of_range("no such mux port");
  if (m.inputs.size() <= 1)
    throw std::logic_error("cannot remove the last mux input");
  m.inputs.erase(m.inputs.begin() + static_cast<std::ptrdiff_t>(port));
  if (m.sel >= m.inputs.size()) m.sel = m.inputs.size() - 1;
  note_edit(mux);
}

std::size_t Rsn::add_mux_input(ElemId mux, ElemId from) {
  Element& m = mut(mux);
  assert(m.kind == ElemKind::Mux);
  m.inputs.push_back(from);
  note_edit(mux);
  return m.inputs.size() - 1;
}

ElemId Rsn::attach_to_scan_out(ElemId elem_id) {
  ElemId driver = elem(scan_out_).inputs[0];
  if (driver == no_elem) {
    connect(elem_id, scan_out_, 0);
    return no_elem;
  }
  if (driver == elem_id) return no_elem;
  auto driver_fanout = [&] {  // fanouts(driver).size(), without the list
    std::size_t n = 0;
    for (const Element& e : elems_)
      n += static_cast<std::size_t>(
          std::count(e.inputs.begin(), e.inputs.end(), driver));
    return n;
  };
  if (elem(driver).kind == ElemKind::Mux && driver_fanout() == 1) {
    // Reuse the existing mux in front of scan-out as a collector — but
    // only if it feeds nothing else, so the attached element cannot
    // reach other segments through it.
    for (ElemId in : elem(driver).inputs)
      if (in == elem_id) return no_elem;
    add_mux_input(driver, elem_id);
    return no_elem;
  }
  ElemId m = add_mux("collect_mux" + std::to_string(next_auto_mux_++), 2);
  connect(driver, m, 0);
  connect(elem_id, m, 1);
  connect(m, scan_out_, 0);
  return m;
}

void Rsn::set_mux_select(ElemId mux, std::size_t sel) {
  Element& m = mut(mux);
  assert(m.kind == ElemKind::Mux);
  if (sel >= m.inputs.size()) throw std::out_of_range("mux select");
  m.sel = sel;
}

void Rsn::set_capture(ElemId reg, std::size_t ff, netlist::NodeId src) {
  Element& r = mut(reg);
  assert(r.kind == ElemKind::Register);
  r.ffs.at(ff).capture_src = src;
}

void Rsn::set_update(ElemId reg, std::size_t ff, netlist::NodeId dst) {
  Element& r = mut(reg);
  assert(r.kind == ElemKind::Register);
  r.ffs.at(ff).update_dst = dst;
}

void Rsn::set_module(ElemId reg, netlist::ModuleId module) {
  Element& r = mut(reg);
  assert(r.kind == ElemKind::Register);
  r.module = module;
}

std::size_t Rsn::num_scan_ffs() const {
  std::size_t n = 0;
  for (ElemId r : registers_) n += elem(r).ffs.size();
  return n;
}

std::vector<std::pair<ElemId, std::size_t>> Rsn::fanouts(ElemId from) const {
  std::vector<std::pair<ElemId, std::size_t>> out;
  for (ElemId id = 0; id < elems_.size(); ++id) {
    const Element& e = elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p)
      if (e.inputs[p] == from) out.emplace_back(id, p);
  }
  return out;
}

bool Rsn::is_acyclic() const {
  // A back edge over input edges means a cycle; the first one decides.
  return search_cycles<ElemId>(
      elems_.size(),
      [this](ElemId id) -> const auto& { return elem(id).inputs; },
      [](ElemId id) { return id == no_elem; },
      [](ElemId, ElemId, const auto&) { return false; });
}

bool Rsn::validate(std::string* error) const {
  auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (!is_acyclic()) return fail("scan network contains a cycle");
  for (ElemId id = 0; id < elems_.size(); ++id) {
    const Element& e = elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] == no_elem &&
          (e.kind == ElemKind::Register || e.kind == ElemKind::ScanOut))
        return fail("dangling input on '" + e.name + "'");
      if (e.inputs[p] != no_elem && e.inputs[p] >= elems_.size())
        return fail("invalid input id on '" + e.name + "'");
    }
  }
  // Every register must be reachable from scan-in and must reach scan-out
  // under some configuration (the paper's method keeps every scan register
  // in the final secure network).
  const ScanAccess access = scan_access();
  for (ElemId r : registers_) {
    if (!access.from_scan_in[r])
      return fail("register '" + elem(r).name + "' unreachable from scan-in");
    if (!access.to_scan_out[r])
      return fail("register '" + elem(r).name + "' cannot reach scan-out");
  }
  return true;
}

std::vector<ElemId> Rsn::active_path() const {
  std::vector<ElemId> rev;
  ElemId cur = scan_out_;
  std::vector<bool> visited(elems_.size(), false);
  while (cur != no_elem) {
    if (visited[cur]) return {};  // configured cycle: broken configuration
    visited[cur] = true;
    rev.push_back(cur);
    const Element& e = elem(cur);
    if (e.kind == ElemKind::ScanIn) {
      return {rev.rbegin(), rev.rend()};
    }
    if (e.inputs.empty()) return {};
    cur = (e.kind == ElemKind::Mux) ? e.inputs[e.sel] : e.inputs[0];
  }
  return {};  // dangling port on the configured path
}

std::vector<ElemId> Rsn::reachable_from(ElemId from) const {
  // Forward reachability needs fanout edges. Build them once per query as
  // flat offset arrays, a counting sort of the edges by driver: consumers
  // of `x` land in fanout[offset[x], offset[x + 1]), in ascending id, then
  // port, order.
  const std::size_t n = elems_.size();
  std::vector<std::uint32_t> offset(n + 2, 0);
  for (const Element& e : elems_)
    for (ElemId in : e.inputs)
      if (in != no_elem) ++offset[in + 2];
  for (std::size_t i = 2; i < offset.size(); ++i) offset[i] += offset[i - 1];
  std::vector<ElemId> fanout(offset[n + 1]);
  for (ElemId id = 0; id < n; ++id)
    for (ElemId in : elem(id).inputs)
      if (in != no_elem) fanout[offset[in + 1]++] = id;
  std::vector<bool> seen(n, false);
  std::vector<ElemId> queue{from}, out;
  seen[from] = true;
  while (!queue.empty()) {
    ElemId id = queue.back();
    queue.pop_back();
    for (std::uint32_t k = offset[id]; k < offset[id + 1]; ++k) {
      ElemId s = fanout[k];
      if (!seen[s]) {
        seen[s] = true;
        out.push_back(s);
        queue.push_back(s);
      }
    }
  }
  return out;
}

std::vector<ElemId> Rsn::reaching(ElemId to) const {
  std::vector<bool> seen(elems_.size(), false);
  std::vector<ElemId> queue{to}, out;
  seen[to] = true;
  while (!queue.empty()) {
    ElemId id = queue.back();
    queue.pop_back();
    for (ElemId in : elem(id).inputs) {
      if (in != no_elem && !seen[in]) {
        seen[in] = true;
        out.push_back(in);
        queue.push_back(in);
      }
    }
  }
  return out;
}

ScanAccess Rsn::scan_access() const {
  ScanAccess access;
  access.from_scan_in.assign(elems_.size(), false);
  access.to_scan_out.assign(elems_.size(), false);
  access.from_scan_in[scan_in_] = true;
  for (ElemId id : reachable_from(scan_in_)) access.from_scan_in[id] = true;
  access.to_scan_out[scan_out_] = true;
  for (ElemId id : reaching(scan_out_)) access.to_scan_out[id] = true;
  return access;
}

bool Rsn::reaches(ElemId from, ElemId to) const {
  if (from == to) return false;
  std::vector<bool> seen(elems_.size(), false);
  std::vector<ElemId> stack{to};
  seen[to] = true;
  while (!stack.empty()) {
    ElemId id = stack.back();
    stack.pop_back();
    for (ElemId in : elem(id).inputs) {
      if (in == from) return true;
      if (in != no_elem && !seen[in]) {
        seen[in] = true;
        stack.push_back(in);
      }
    }
  }
  return false;
}

void Rsn::note_edit(ElemId id) {
  if (edits_.overflow) return;
  for (ElemId x : edits_.ids)
    if (x == id) return;
  if (edits_.ids.size() == edit_record_bound) {
    edits_.ids.clear();
    edits_.overflow = true;
    return;
  }
  edits_.ids.push_back(id);
}

void Rsn::restore(const Rsn& base) {
  assert(elems_.size() >= base.elems_.size());
  assert(registers_.size() == base.registers_.size());
  elems_.resize(base.elems_.size());
  muxes_.resize(base.muxes_.size());
  // Only edited input lists (and the selects remove_mux_input clamps)
  // can differ from the base; after an overflow, any of them.
  auto roll_back = [&](std::size_t i) {
    Element& e = elems_[i];
    const Element& b = base.elems_[i];
    if (e.inputs != b.inputs) e.inputs = b.inputs;
    e.sel = b.sel;
  };
  if (edits_.overflow) {
    for (std::size_t i = 0; i < elems_.size(); ++i) roll_back(i);
  } else {
    for (ElemId id : edits_.ids)
      if (id < elems_.size()) roll_back(id);
  }
  edits_.ids.clear();
  edits_.overflow = false;
  next_auto_mux_ = base.next_auto_mux_;
}

}  // namespace rsnsec::rsn
