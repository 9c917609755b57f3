#include "faults/auditor.hpp"

#include <algorithm>
#include <sstream>

#include "common/hex.hpp"
#include "common/log.hpp"

namespace zc::faults {
namespace {

/// Stable JSON key for a violation kind.
const char* kKindNames[] = {
    "chain_fork",           "broken_hash_link",     "bad_origin_signature", "lost_input",
    "exported_beyond_proof", "export_proof_invalid", "export_mismatch",
};

}  // namespace

const char* violation_name(ViolationKind kind) noexcept {
    return kKindNames[static_cast<unsigned>(kind)];
}

void SafetyAuditor::configure(std::uint32_t f, SeqNo checkpoint_interval, Verifier verifier) {
    f_ = f;
    interval_ = checkpoint_interval == 0 ? 1 : checkpoint_interval;
    verifier_ = std::move(verifier);
}

void SafetyAuditor::note_received(NodeId node, const crypto::Digest& payload_digest) {
    received_[node].insert(payload_digest);
}

void SafetyAuditor::note_logged(NodeId node, const crypto::Digest& payload_digest) {
    logged_[node].insert(payload_digest);
}

void SafetyAuditor::note_crashed(NodeId node) {
    // A crash legitimately loses volatile inputs: Alg. 1's guarantee only
    // covers payloads a *correct, running* node accepted. The logged set
    // is kept — the durable chain survives the crash.
    received_[node].clear();
    sig_verified_to_.erase(node);  // the store may restart below the cursor
}

void SafetyAuditor::compact() {
    for (auto& [node, received] : received_) {
        const auto logged = logged_.find(node);
        if (logged == logged_.end()) continue;
        std::erase_if(received,
                      [&](const crypto::Digest& d) { return logged->second.contains(d); });
    }
}

void SafetyAuditor::violate(ViolationKind kind, NodeId where, Height height,
                            std::string detail) {
    if (!seen_.emplace(static_cast<int>(kind), where, height).second) return;
    ZC_ERROR("audit", "safety violation {} at {} height {}: {}", violation_name(kind), where,
             height, detail);
    trace_.event(trace::Phase::kAuditViolation,
                 (static_cast<std::uint64_t>(where) << 40) ^ height,
                 static_cast<std::uint64_t>(kind));
    report_.violations.push_back(Violation{kind, where, height, std::move(detail)});
}

void SafetyAuditor::check_store(NodeId where, const chain::BlockStore& store) {
    report_.checks += 1;
    if (!store.validate(store.base_height(), store.head_height())) {
        violate(ViolationKind::kBrokenHashLink, where, store.head_height(),
                "store fails hash-link/payload-root validation");
    }
}

void SafetyAuditor::check_origin_signatures(const ReplicaView& r) {
    if (!verifier_) return;
    Height& cursor = sig_verified_to_[r.id];
    cursor = std::max(cursor, r.store->base_height());
    const Height head = r.store->head_height();
    for (Height h = cursor + 1; h <= head; ++h) {
        const chain::Block* b = r.store->get(h);
        if (b == nullptr) continue;  // pruned or body-trimmed: headers only
        for (const chain::LoggedRequest& lr : b->requests) {
            if (lr.origin == kNoNode) continue;  // null filler slot
            report_.checks += 1;
            pbft::Request probe;
            probe.payload = lr.payload;
            probe.origin = lr.origin;
            probe.origin_seq = lr.origin_seq;
            const Bytes sb = probe.signing_bytes();
            if (!verifier_(lr.origin, sb, lr.sig)) {
                violate(ViolationKind::kBadOriginSignature, r.id, h,
                        format("request from origin {} seq {} has an invalid signature",
                               lr.origin, lr.seq));
            }
        }
    }
    cursor = head;
}

void SafetyAuditor::check_prefix(const ReplicaView& r, const ReplicaView& ref) {
    report_.checks += 1;
    const Height hi = std::min(r.store->head_height(), ref.store->head_height());
    const Height lo = std::max(r.store->base_height(), ref.store->base_height());
    if (hi < lo) return;  // no overlap retained (aggressive pruning)
    const chain::BlockHeader* a = r.store->header(hi);
    const chain::BlockHeader* b = ref.store->header(hi);
    if (a == nullptr || b == nullptr) return;
    if (a->hash() != b->hash()) {
        violate(ViolationKind::kChainFork, r.id, hi,
                format("chain disagrees with replica {} at shared height", ref.id));
    }
}

void SafetyAuditor::check_lost_inputs(const ReplicaView& r) {
    if (r.layer == nullptr) return;  // baseline mode: no open-request tracking
    const auto logged = logged_.find(r.id);
    for (const crypto::Digest& d : received_[r.id]) {
        report_.checks += 1;
        if (logged != logged_.end() && logged->second.contains(d)) continue;
        if (r.layer->is_open(d)) continue;
        violate(ViolationKind::kLostInput, r.id, 0,
                format("payload {} received but neither logged nor open",
                       to_hex(BytesView{d.data(), 8})));
    }
}

void SafetyAuditor::check_data_center(const DataCenterView& dc, const ReplicaView* ref) {
    const NodeId where = 100 + dc.id;  // report namespace for data centers
    check_store(where, *dc.store);
    if (dc.proof != nullptr) {
        const Height covered = dc.proof->seq / interval_;
        report_.checks += 1;
        if (dc.store->head_height() > covered) {
            violate(ViolationKind::kExportedBeyondProof, where, dc.store->head_height(),
                    format("holds blocks above proof-covered height {}", covered));
        }
        report_.checks += 1;
        std::set<NodeId> signers;
        if (verifier_) {
            for (const pbft::Checkpoint& c : dc.proof->messages) {
                if (c.seq != dc.proof->seq || c.state != dc.proof->state) continue;
                const Bytes sb = c.signing_bytes();
                if (!verifier_(c.replica, sb, c.sig)) continue;
                signers.insert(c.replica);
            }
            if (signers.size() < 2 * f_ + 1) {
                violate(ViolationKind::kExportProofInvalid, where, covered,
                        format("proof carries {} distinct valid signers, need {}",
                               signers.size(), 2 * f_ + 1));
            }
        }
    }
    if (ref != nullptr) {
        report_.checks += 1;
        const Height hi = std::min(dc.store->head_height(), ref->store->head_height());
        const Height lo = std::max(dc.store->base_height(), ref->store->base_height());
        if (hi >= lo) {
            const chain::BlockHeader* a = dc.store->header(hi);
            const chain::BlockHeader* b = ref->store->header(hi);
            if (a != nullptr && b != nullptr && a->hash() != b->hash()) {
                violate(ViolationKind::kExportMismatch, where, hi,
                        format("exported block differs from replica {}'s chain", ref->id));
            }
        }
    }
}

void SafetyAuditor::audit(const std::vector<ReplicaView>& replicas,
                          const std::vector<DataCenterView>& dcs) {
    report_.audits += 1;
    const auto audited = [](const ReplicaView& r) {
        return !r.compromised && r.alive && r.store != nullptr;
    };
    // The reference is the live replica with the highest head (the first
    // on a tie). check_store proves each chain hash-linked, so a replica
    // that agrees with the longest chain at its own head is a prefix of
    // it, and no two replicas can fork above the reference unseen.
    const ReplicaView* ref = nullptr;
    for (const ReplicaView& r : replicas) {
        if (!audited(r)) continue;
#ifdef ZC_BREAK_PREFIX
        // Negative-test build: the first live replica, however short.
        if (ref == nullptr) ref = &r;
#else
        if (ref == nullptr || r.store->head_height() > ref->store->head_height()) ref = &r;
#endif
    }
    for (const ReplicaView& r : replicas) {
        if (!audited(r)) continue;
        check_store(r.id, *r.store);
        check_origin_signatures(r);
        check_lost_inputs(r);
        if (&r != ref) check_prefix(r, *ref);
    }
    for (const DataCenterView& dc : dcs) {
        if (dc.store == nullptr) continue;
        check_data_center(dc, ref);
    }
}

std::string AuditReport::json() const {
    std::ostringstream out;
    out << "{\"audits\":" << audits << ",\"checks\":" << checks << ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        const Violation& v = violations[i];
        if (i != 0) out << ',';
        out << "{\"kind\":\"" << violation_name(v.kind) << "\",\"where\":" << v.where
            << ",\"height\":" << v.height << ",\"detail\":\"" << v.detail << "\"}";
    }
    out << "]}";
    return out.str();
}

}  // namespace zc::faults
