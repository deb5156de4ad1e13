#include "net/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace esg::net {

namespace {
// Rates are bytes/second up to a few 1e8; one byte/s of slack is noise.
constexpr double kRateEps = 1e-6;
constexpr double kByteEps = 0.5;  // "done" when less than half a byte remains
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulation& simulation) : sim_(simulation) {
  components_gauge_ = &sim_.metrics().gauge("net_components");
  solve_size_gauge_ = &sim_.metrics().gauge("net_component_solve_size");
  components_gauge_->set(0.0);
}

FluidNetwork::~FluidNetwork() {
  for (auto& c : comp_pool_) c.completion.cancel();
}

Resource* FluidNetwork::add_resource(std::string name, Rate capacity) {
  auto res = std::make_unique<Resource>(name, capacity);
  Resource* ptr = res.get();
  ptr->id_ = static_cast<std::uint32_t>(resources_by_id_.size());
  ptr->util_gauge_ = &sim_.metrics().gauge("net_resource_utilization",
                                           {{"resource", ptr->name()}});
  auto [it, inserted] = resources_.emplace(std::move(name), std::move(res));
  assert(inserted && "duplicate resource name");
  (void)it;
  resources_by_id_.push_back(ptr);
  res_comp_.push_back(kNone);
  foreground_.push_back(0.0);
  // Per-resource solver scratch grows here, never during a solve.
  usage_scratch_.push_back(0.0);
  cap_scratch_.push_back(0.0);
  unfrozen_scratch_.push_back(0);
  res_mark_.push_back(0);
  return ptr;
}

Resource* FluidNetwork::find_resource(const std::string& name) {
  auto it = resources_.find(name);
  return it == resources_.end() ? nullptr : it->second.get();
}

void FluidNetwork::on_mutation() {
  rates_dirty_ = true;
  if (batch_depth_ == 0) touch();
}

void FluidNetwork::mark_dirty(std::uint32_t cid) {
  Component& c = comp_pool_[cid];
  if (!c.dirty) {
    c.dirty = true;
    dirty_comps_.push_back(cid);
  }
}

void FluidNetwork::set_down(Resource* resource, bool down) {
  assert(resource != nullptr);
  if (resource->down_ == down) return;
  resource->down_ = down;
  if (res_comp_[resource->id_] != kNone) {
    mark_dirty(res_comp_[resource->id_]);
  } else {
    pending_res_.push_back(resource);
  }
  on_mutation();
}

void FluidNetwork::set_background(Resource* resource, Rate load) {
  assert(resource != nullptr);
  const Rate clamped = std::max(0.0, load);
  if (resource->background_ == clamped) return;
  resource->background_ = clamped;
  if (res_comp_[resource->id_] != kNone) {
    mark_dirty(res_comp_[resource->id_]);
  } else {
    pending_res_.push_back(resource);
  }
  on_mutation();
}

void FluidNetwork::set_capacity(Resource* resource, Rate capacity) {
  assert(resource != nullptr);
  const Rate clamped = std::max(0.0, capacity);
  if (resource->nominal_ == clamped) return;
  resource->nominal_ = clamped;
  if (res_comp_[resource->id_] != kNone) {
    mark_dirty(res_comp_[resource->id_]);
  } else {
    pending_res_.push_back(resource);
  }
  on_mutation();
}

// ---- arenas ----

std::uint32_t FluidNetwork::path_alloc(std::uint32_t len) {
  if (len == 0) return 0;
  auto it = path_free_.find(len);
  if (it != path_free_.end() && !it->second.empty()) {
    const std::uint32_t begin = it->second.back();
    it->second.pop_back();
    return begin;
  }
  const auto begin = static_cast<std::uint32_t>(path_pool_.size());
  path_pool_.resize(path_pool_.size() + len);
  return begin;
}

std::uint32_t FluidNetwork::alloc_flow(const FlowSpec& spec) {
  std::uint32_t fslot;
  if (!flow_free_.empty()) {
    fslot = flow_free_.back();
    flow_free_.pop_back();
  } else {
    fslot = static_cast<std::uint32_t>(flow_pool_.size());
    flow_pool_.emplace_back();
  }
  Flow& f = flow_pool_[fslot];
  f = Flow{};
  f.cap = spec.cap;
  f.path_len = static_cast<std::uint32_t>(spec.path.size());
  f.path_begin = path_alloc(f.path_len);
  for (std::uint32_t k = 0; k < f.path_len; ++k) {
    path_pool_[f.path_begin + k] = spec.path[k]->id();
  }
  return fslot;
}

void FluidNetwork::free_flow(std::uint32_t fslot) {
  Flow& f = flow_pool_[fslot];
  if (f.path_len > 0) path_free_[f.path_len].push_back(f.path_begin);
  f = Flow{};
  flow_free_.push_back(fslot);
}

std::uint32_t FluidNetwork::alloc_comp() {
  std::uint32_t cid;
  if (!comp_free_.empty()) {
    cid = comp_free_.back();
    comp_free_.pop_back();
  } else {
    cid = static_cast<std::uint32_t>(comp_pool_.size());
    comp_pool_.emplace_back();
    comp_mark_.push_back(0);
  }
  Component& c = comp_pool_[cid];
  c.flows.clear();
  c.resources.clear();
  c.live = true;
  c.dirty = false;
  c.needs_rebuild = false;
  ++live_components_;
  components_gauge_->set(static_cast<double>(live_components_));
  return cid;
}

void FluidNetwork::free_comp(std::uint32_t cid) {
  Component& c = comp_pool_[cid];
  c.completion.cancel();  // merged away or emptied: its transfers moved on
  c.due_at = kNever;
  c.flows.clear();
  c.resources.clear();
  c.live = false;
  c.dirty = false;
  c.needs_rebuild = false;
  comp_free_.push_back(cid);
  --live_components_;
  components_gauge_->set(static_cast<double>(live_components_));
}

void FluidNetwork::assign_flow_component(std::uint32_t fslot) {
  Flow& f = flow_pool_[fslot];
  // Collect the distinct components the path touches.
  ++mark_epoch_;
  merge_scratch_.clear();
  std::uint32_t target = kNone;
  for (std::uint32_t k = 0; k < f.path_len; ++k) {
    const std::uint32_t cid = res_comp_[path_pool_[f.path_begin + k]];
    if (cid == kNone || comp_mark_[cid] == mark_epoch_) continue;
    comp_mark_[cid] = mark_epoch_;
    merge_scratch_.push_back(cid);
    if (target == kNone ||
        comp_pool_[cid].flows.size() > comp_pool_[target].flows.size()) {
      target = cid;
    }
  }
  if (target == kNone) target = alloc_comp();
  // Absorb every other bridged component into the largest one.
  for (const std::uint32_t cid : merge_scratch_) {
    if (cid == target) continue;
    Component& from = comp_pool_[cid];
    Component& into = comp_pool_[target];
    for (const std::uint32_t fs : from.flows) {
      flow_pool_[fs].comp = target;
      flow_pool_[fs].index_in_comp =
          static_cast<std::uint32_t>(into.flows.size());
      into.flows.push_back(fs);
    }
    for (const std::uint32_t rid : from.resources) {
      res_comp_[rid] = target;
      into.resources.push_back(rid);
    }
    free_comp(cid);
  }
  Component& c = comp_pool_[target];
  f.comp = target;
  f.index_in_comp = static_cast<std::uint32_t>(c.flows.size());
  c.flows.push_back(fslot);
  for (std::uint32_t k = 0; k < f.path_len; ++k) {
    const std::uint32_t rid = path_pool_[f.path_begin + k];
    if (res_comp_[rid] == kNone) {
      res_comp_[rid] = target;
      c.resources.push_back(rid);
    }
  }
  mark_dirty(target);
}

void FluidNetwork::remove_flow(std::uint32_t fslot) {
  Flow& f = flow_pool_[fslot];
  const std::uint32_t cid = f.comp;
  Component& c = comp_pool_[cid];
  // Swap-remove from the component's flow list.
  const std::uint32_t pos = f.index_in_comp;
  const std::uint32_t last = c.flows.back();
  c.flows[pos] = last;
  flow_pool_[last].index_in_comp = pos;
  c.flows.pop_back();
  if (c.flows.empty()) {
    // Last flow gone: orphan the resources and retire the component.
    for (const std::uint32_t rid : c.resources) {
      res_comp_[rid] = kNone;
      foreground_[rid] = 0.0;
      update_resource_gauge(resources_by_id_[rid]);
    }
    // A pending dirty entry for this slot is skipped by the solve loop.
    free_comp(cid);
  } else {
    mark_dirty(cid);
    c.needs_rebuild = true;
  }
  free_flow(fslot);
}

void FluidNetwork::rebuild_component(std::uint32_t cid,
                                     std::vector<std::uint32_t>& worklist) {
  // A flow removal may have disconnected the component.  Re-derive its
  // connectivity with a resource-keyed union-find scoped to this component;
  // group 1 keeps the slot, every further group gets a fresh (dirty) one.
  ++rebuilds_;
  ++mark_epoch_;
  uf_parent_.resize(res_comp_.size());
  Component& c = comp_pool_[cid];
  c.needs_rebuild = false;

  auto find_root = [&](std::uint32_t rid) {
    std::uint32_t root = rid;
    while (uf_parent_[root] != root) root = uf_parent_[root];
    while (uf_parent_[rid] != root) {
      const std::uint32_t up = uf_parent_[rid];
      uf_parent_[rid] = root;
      rid = up;
    }
    return root;
  };

  for (const std::uint32_t fslot : c.flows) {
    const Flow& f = flow_pool_[fslot];
    std::uint32_t first = kNone;
    for (std::uint32_t k = 0; k < f.path_len; ++k) {
      const std::uint32_t rid = path_pool_[f.path_begin + k];
      if (res_mark_[rid] != mark_epoch_) {
        res_mark_[rid] = mark_epoch_;
        uf_parent_[rid] = rid;
      }
      if (first == kNone) {
        first = rid;
      } else {
        uf_parent_[find_root(rid)] = find_root(first);
      }
    }
  }

  // Partition the flows by root.  Empty-path flows (no resources) each form
  // their own group.
  group_scratch_.clear();  // (root, component) pairs
  auto comp_for_root = [&](std::uint32_t root) {
    for (const auto& [r, id] : group_scratch_) {
      if (r == root) return id;
    }
    std::uint32_t id;
    if (group_scratch_.empty()) {
      id = cid;  // first group reuses the slot
      // Clearing here is safe: flows/resources were snapshotted below.
    } else {
      id = alloc_comp();
      comp_pool_[id].dirty = true;  // solved by the caller's worklist
      worklist.push_back(id);
    }
    group_scratch_.emplace_back(root, id);
    return id;
  };

  // Snapshot the member lists, then redistribute.
  std::vector<std::uint32_t>& old_flows = transfer_scratch_;  // reuse scratch
  old_flows.assign(c.flows.begin(), c.flows.end());
  std::vector<std::uint32_t> old_resources;
  old_resources.swap(c.resources);
  c.flows.clear();

  for (const std::uint32_t fslot : old_flows) {
    Flow& f = flow_pool_[fslot];
    std::uint32_t target;
    if (f.path_len == 0) {
      // Detached flow: isolate it (cannot share a component with anything).
      target = group_scratch_.empty() ? cid : alloc_comp();
      if (target != cid) {
        comp_pool_[target].dirty = true;
        worklist.push_back(target);
        group_scratch_.emplace_back(kNone, target);  // occupy group 1 marker
      } else {
        group_scratch_.emplace_back(kNone, target);
      }
    } else {
      target = comp_for_root(find_root(path_pool_[f.path_begin]));
    }
    Component& tc = comp_pool_[target];
    f.comp = target;
    f.index_in_comp = static_cast<std::uint32_t>(tc.flows.size());
    tc.flows.push_back(fslot);
  }

  for (const std::uint32_t rid : old_resources) {
    if (res_mark_[rid] != mark_epoch_) {
      // No remaining flow crosses it: orphan.
      res_comp_[rid] = kNone;
      foreground_[rid] = 0.0;
      update_resource_gauge(resources_by_id_[rid]);
      continue;
    }
    const std::uint32_t target = comp_for_root(find_root(rid));
    res_comp_[rid] = target;
    comp_pool_[target].resources.push_back(rid);
  }
}

// ---- transfers ----

TransferId FluidNetwork::start_transfer(std::vector<FlowSpec> flows,
                                        Bytes total,
                                        TransferCallbacks callbacks) {
  assert(!flows.empty());
  std::uint32_t tslot;
  if (!transfer_free_.empty()) {
    tslot = transfer_free_.back();
    transfer_free_.pop_back();
  } else {
    tslot = static_cast<std::uint32_t>(transfer_pool_.size());
    transfer_pool_.emplace_back();
    transfer_mark_.push_back(0);
  }
  Transfer& t = transfer_pool_[tslot];
  t.id = next_id_++;
  t.total = total < 0 ? -1.0 : static_cast<double>(total);
  t.delivered = 0.0;
  t.cached_rate = 0.0;
  t.last_integrated = sim_.now();
  t.stalled_since = sim_.now();
  t.on_complete = std::move(callbacks.on_complete);
  t.flows.clear();
  t.flows.reserve(flows.size());
  for (const auto& spec : flows) {
    const std::uint32_t fslot = alloc_flow(spec);
    flow_pool_[fslot].transfer = tslot;
    t.flows.push_back(fslot);
    assign_flow_component(fslot);
  }
  const TransferId id = t.id;
  index_.emplace(id, tslot);
  on_mutation();  // a zero-byte transfer completes inside this touch
  return id;
}

Bytes FluidNetwork::cancel_transfer(TransferId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return 0;
  const std::uint32_t tslot = it->second;
  // Account bytes up to this instant before dropping the transfer.
  integrate_transfer(tslot);
  const Transfer& t = transfer_pool_[tslot];
  const auto delivered = static_cast<Bytes>(t.delivered + kByteEps);
  erase_transfer_slot(tslot);
  on_mutation();
  return delivered;
}

void FluidNetwork::erase_transfer_slot(std::uint32_t tslot) {
  Transfer& t = transfer_pool_[tslot];
  for (const std::uint32_t fslot : t.flows) remove_flow(fslot);
  index_.erase(t.id);
  t = Transfer{};
  transfer_free_.push_back(tslot);
}

void FluidNetwork::set_flow_cap(TransferId id, std::size_t flow_index,
                                Rate cap) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  Transfer& t = transfer_pool_[it->second];
  assert(flow_index < t.flows.size());
  Flow& f = flow_pool_[t.flows[flow_index]];
  if (f.cap == cap) return;
  f.cap = cap;
  mark_dirty(f.comp);
  on_mutation();
}

void FluidNetwork::set_transfer_cap(TransferId id, Rate cap) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  Transfer& t = transfer_pool_[it->second];
  bool changed = false;
  for (const std::uint32_t fslot : t.flows) {
    Flow& f = flow_pool_[fslot];
    if (f.cap != cap) {
      f.cap = cap;
      mark_dirty(f.comp);
      changed = true;
    }
  }
  if (changed) on_mutation();
}

void FluidNetwork::add_flow(TransferId id, FlowSpec flow) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  const std::uint32_t tslot = it->second;
  const std::uint32_t fslot = alloc_flow(flow);
  flow_pool_[fslot].transfer = tslot;
  transfer_pool_[tslot].flows.push_back(fslot);
  assign_flow_component(fslot);
  on_mutation();
}

bool FluidNetwork::transfer_active(TransferId id) const {
  return index_.count(id) > 0;
}

Bytes FluidNetwork::transferred(TransferId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return 0;
  const Transfer& t = transfer_pool_[it->second];
  // Include bytes accrued since the transfer's last integration point.
  const double dt = common::to_seconds(sim_.now() - t.last_integrated);
  double v = t.delivered + t.cached_rate * dt;
  if (t.total >= 0.0) v = std::min(v, t.total);
  return static_cast<Bytes>(v + kByteEps);
}

Bytes FluidNetwork::flow_transferred(TransferId id,
                                     std::size_t flow_index) const {
  auto it = index_.find(id);
  if (it == index_.end()) return 0;
  const Transfer& t = transfer_pool_[it->second];
  if (flow_index >= t.flows.size()) return 0;
  const Flow& f = flow_pool_[t.flows[flow_index]];
  const double dt = common::to_seconds(sim_.now() - t.last_integrated);
  double v = f.delivered + f.rate * dt;
  // A single flow can never carry more than the pool holds; float accrual
  // at completion would otherwise over-report (the pool itself clamps).
  if (t.total >= 0.0) v = std::min(v, t.total);
  return static_cast<Bytes>(v + kByteEps);
}

Rate FluidNetwork::current_rate(TransferId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? 0.0 : transfer_pool_[it->second].cached_rate;
}

Rate FluidNetwork::flow_rate(TransferId id, std::size_t flow_index) const {
  auto it = index_.find(id);
  if (it == index_.end()) return 0.0;
  const Transfer& t = transfer_pool_[it->second];
  if (flow_index >= t.flows.size()) return 0.0;
  return flow_pool_[t.flows[flow_index]].rate;
}

SimTime FluidNetwork::stalled_since(TransferId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return sim_.now();
  const Transfer& t = transfer_pool_[it->second];
  return t.cached_rate > 0.0 ? sim_.now() : t.stalled_since;
}

bool FluidNetwork::same_component(const Resource* a, const Resource* b) const {
  if (a == nullptr || b == nullptr) return false;
  const std::uint32_t ca = res_comp_[a->id()];
  return ca != kNone && ca == res_comp_[b->id()];
}

void FluidNetwork::update() { touch(); }

// ---- integration ----

void FluidNetwork::integrate_transfer(std::uint32_t tslot) {
  Transfer& t = transfer_pool_[tslot];
  const SimTime now = sim_.now();
  if (now <= t.last_integrated) return;
  const double dt = common::to_seconds(now - t.last_integrated);
  t.last_integrated = now;
  if (t.cached_rate <= 0.0) return;
  double earned = 0.0;
  for (const std::uint32_t fslot : t.flows) {
    Flow& f = flow_pool_[fslot];
    if (f.rate <= 0.0) continue;
    const double d = f.rate * dt;
    f.delivered += d;
    earned += d;
  }
  // Never drain past the pool: clamp (floating error at completion).
  if (t.total >= 0.0 && t.delivered + earned > t.total) {
    earned = t.total - t.delivered;
  }
  t.delivered += earned;
}

// ---- solving ----

void FluidNetwork::update_resource_gauge(Resource* res) {
  const double used = res->background_ + foreground_[res->id_];
  const double util =
      res->nominal_ > 0.0 ? std::min(1.0, used / res->nominal_) : 0.0;
  if (util == res->utilization_) return;
  res->utilization_ = util;
  res->util_gauge_->set(util);
  ++util_gauge_updates_;
}

void FluidNetwork::solve_component(std::uint32_t cid) {
  // Progressive filling (water-filling) with per-flow caps, restricted to
  // one connected component.  Every flow ends either frozen at its cap or
  // crossing a saturated resource — the classic max-min optimality
  // condition, asserted by the property tests against the retained
  // reference implementation (net/fluid_reference.hpp).  The arithmetic is
  // iteration-order independent within a round, so a single-component world
  // reproduces the pre-partitioned global solver bit-for-bit.
  Component& c = comp_pool_[cid];

  // Integrate the component's transfers at their outgoing rates before
  // those rates change.
  ++mark_epoch_;
  transfer_scratch_.clear();
  for (const std::uint32_t fslot : c.flows) {
    const std::uint32_t tslot = flow_pool_[fslot].transfer;
    if (transfer_mark_[tslot] == mark_epoch_) continue;
    transfer_mark_[tslot] = mark_epoch_;
    transfer_scratch_.push_back(tslot);
    integrate_transfer(tslot);
  }

  entries_scratch_.clear();
  for (const std::uint32_t fslot : c.flows) {
    flow_pool_[fslot].rate = 0.0;
    entries_scratch_.push_back(SolverEntry{fslot, false});
  }
  for (const std::uint32_t rid : c.resources) {
    usage_scratch_[rid] = 0.0;
    unfrozen_scratch_[rid] = 0;
    cap_scratch_[rid] = resources_by_id_[rid]->effective_capacity();
  }
  for (const auto& e : entries_scratch_) {
    const Flow& f = flow_pool_[e.fslot];
    for (std::uint32_t k = 0; k < f.path_len; ++k) {
      ++unfrozen_scratch_[path_pool_[f.path_begin + k]];
    }
  }

  std::size_t unfrozen = entries_scratch_.size();
  while (unfrozen > 0) {
    // The largest uniform rate increase every unfrozen flow can take.
    double delta = std::numeric_limits<double>::infinity();
    for (const auto& e : entries_scratch_) {
      if (e.frozen) continue;
      const Flow& f = flow_pool_[e.fslot];
      delta = std::min(delta, f.cap - f.rate);
    }
    for (const std::uint32_t rid : c.resources) {
      const int n = unfrozen_scratch_[rid];
      if (n <= 0) continue;
      const double room = cap_scratch_[rid] - usage_scratch_[rid];
      delta = std::min(delta, room / n);
    }
    if (!std::isfinite(delta)) {
      // No cap and no resource constrains these flows; they are idle paths
      // in tests.  Freeze at an arbitrarily large rate.
      for (auto& e : entries_scratch_) {
        if (!e.frozen) {
          Flow& f = flow_pool_[e.fslot];
          f.rate = f.cap;  // cap is infinite here; harmless
          e.frozen = true;
        }
      }
      break;
    }
    delta = std::max(0.0, delta);
    if (delta > 0.0) {
      for (auto& e : entries_scratch_) {
        if (e.frozen) continue;
        Flow& f = flow_pool_[e.fslot];
        f.rate += delta;
        for (std::uint32_t k = 0; k < f.path_len; ++k) {
          usage_scratch_[path_pool_[f.path_begin + k]] += delta;
        }
      }
    }
    // Freeze flows at their cap or crossing a saturated resource.
    bool any_frozen = false;
    for (auto& e : entries_scratch_) {
      if (e.frozen) continue;
      Flow& f = flow_pool_[e.fslot];
      bool freeze = f.rate >= f.cap - kRateEps;
      if (!freeze) {
        for (std::uint32_t k = 0; k < f.path_len; ++k) {
          const std::uint32_t rid = path_pool_[f.path_begin + k];
          if (usage_scratch_[rid] >= cap_scratch_[rid] - kRateEps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        e.frozen = true;
        any_frozen = true;
        --unfrozen;
        for (std::uint32_t k = 0; k < f.path_len; ++k) {
          --unfrozen_scratch_[path_pool_[f.path_begin + k]];
        }
      }
    }
    if (!any_frozen) break;  // numerical safety: guarantee progress
  }

  // Publish the component's foreground usage (write-on-change gauges).
  for (const std::uint32_t rid : c.resources) {
    foreground_[rid] = usage_scratch_[rid];
    update_resource_gauge(resources_by_id_[rid]);
  }

  // Refresh the per-transfer aggregate cache the rest of the network (rate
  // queries, byte integration, the stall clock) reads, and predict the
  // component's next completion from the fresh rates.
  const SimTime now = sim_.now();
  double earliest = std::numeric_limits<double>::infinity();
  for (const std::uint32_t tslot : transfer_scratch_) {
    Transfer& t = transfer_pool_[tslot];
    Rate sum = 0.0;
    for (const std::uint32_t fslot : t.flows) sum += flow_pool_[fslot].rate;
    if (sum <= 0.0 && t.cached_rate > 0.0) t.stalled_since = now;
    t.cached_rate = sum;
    if (t.total < 0.0) continue;
    const double rem = t.remaining();
    if (rem <= kByteEps || std::isinf(sum)) {
      // Already drained (zero-byte transfers) or unconstrained (a flow that
      // crosses no resource and has no cap): finish it within this touch.
      due_.emplace_back(tslot, t.id);
      dirty_ = true;
    } else if (sum > kRateEps) {
      earliest = std::min(earliest, rem / sum);
    }
  }
  arm_completion(cid, earliest);

  ++component_solves_;
  flows_solved_total_ += c.flows.size();
  last_solve_flows_ = c.flows.size();
  max_solve_flows_ = std::max(max_solve_flows_, c.flows.size());
  solve_size_gauge_->set(static_cast<double>(c.flows.size()));
}

void FluidNetwork::solve_dirty_components() {
  std::swap(dirty_comps_, dirty_scratch_);
  dirty_comps_.clear();
  // Index loop: rebuild splits append their new components to the worklist.
  for (std::size_t i = 0; i < dirty_scratch_.size(); ++i) {
    const std::uint32_t cid = dirty_scratch_[i];
    if (!comp_pool_[cid].live || !comp_pool_[cid].dirty) continue;  // merged away
    if (comp_pool_[cid].needs_rebuild) {
      rebuild_component(cid, dirty_scratch_);
    }
    solve_component(cid);
    comp_pool_[cid].dirty = false;
  }
  dirty_scratch_.clear();
  // Resources with no flows whose background/capacity/down state changed:
  // the legacy solver refreshed every gauge after each solve, so mirror
  // that for the ones no component covers.
  for (Resource* res : pending_res_) update_resource_gauge(res);
  pending_res_.clear();
}

// ---- events ----

void FluidNetwork::arm_completion(std::uint32_t cid, double earliest) {
  Component& c = comp_pool_[cid];
  SimTime at = kNever;
  if (std::isfinite(earliest)) {
    // Round up so the transfer has drained when the event fires; cap the
    // horizon (~31 years) so a crawling rate cannot overflow the clock.
    const double ns =
        std::min(std::ceil(earliest * static_cast<double>(common::kSecond)),
                 1e18);
    at = sim_.now() + static_cast<SimDuration>(ns);
  }
  if (at == c.due_at) return;
  c.completion.cancel();
  c.due_at = at;
  if (at == kNever) return;
  c.completion = sim_.schedule_at(at, [this, cid] { on_component_due(cid); });
}

void FluidNetwork::on_component_due(std::uint32_t cid) {
  Component& c = comp_pool_[cid];
  c.completion = {};
  c.due_at = kNever;
  ++mark_epoch_;
  for (const std::uint32_t fslot : c.flows) {
    const std::uint32_t tslot = flow_pool_[fslot].transfer;
    if (transfer_mark_[tslot] == mark_epoch_) continue;
    transfer_mark_[tslot] = mark_epoch_;
    Transfer& t = transfer_pool_[tslot];
    if (t.total < 0.0) continue;
    integrate_transfer(tslot);
    if (t.remaining() <= kByteEps) due_.emplace_back(tslot, t.id);
  }
  if (due_.empty()) {
    // Floating-point drift left the predicted transfer a hair short: the
    // re-solve re-arms the event at the corrected time.
    mark_dirty(cid);
    rates_dirty_ = true;
  }
  touch();
}

void FluidNetwork::complete_due() {
  // Simultaneous completions fire in id order, whichever component found
  // them; a transfer spanning components may be listed twice.
  std::sort(due_.begin(), due_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  notify_scratch_.clear();
  for (const auto& [tslot, id] : due_) {
    Transfer& t = transfer_pool_[tslot];
    if (t.id != id) continue;  // already retired
    if (t.on_complete) notify_scratch_.push_back(std::move(t.on_complete));
    erase_transfer_slot(tslot);
    rates_dirty_ = true;
  }
  due_.clear();
  // Callbacks run last: a re-entrant mutation only sets dirty_, so neither
  // list changes under them.
  for (auto& fn : notify_scratch_) fn();
}

void FluidNetwork::touch() {
  if (in_touch_) {
    dirty_ = true;
    return;
  }
  in_touch_ = true;
  ++touches_;
  do {
    dirty_ = false;
    // Retire drained transfers before reallocating, since completion
    // callbacks typically start follow-on transfers.
    if (!due_.empty()) complete_due();
    if (rates_dirty_) {
      rates_dirty_ = false;
      ++reallocations_;
      solve_dirty_components();
    }
  } while (dirty_);
  in_touch_ = false;
}

}  // namespace esg::net
