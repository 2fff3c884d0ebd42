#include "gpu/shader_cache.h"

#include "gpu/shader_core.h"

namespace bifsim::gpu {

ShaderCacheL2::~ShaderCacheL2()
{
    purge();
}

std::shared_ptr<DecodedShader>
ShaderCacheL2::lookup(uint32_t va) const
{
    uint64_t cur = epoch_.load(std::memory_order_acquire);
    for (const Node *n =
             buckets_[bucketOf(va)].load(std::memory_order_acquire);
         n != nullptr; n = n->next) {
        if (n->va == va && n->epoch == cur)
            return n->shader;
    }
    return nullptr;
}

void
ShaderCacheL2::insert(uint32_t va, std::shared_ptr<DecodedShader> shader,
                      uint64_t decode_epoch)
{
    sim::LockGuard g(writeLock_);
    std::atomic<Node *> &head = buckets_[bucketOf(va)];
    Node *n = new Node{va, decode_epoch, std::move(shader),
                       head.load(std::memory_order_relaxed)};
    // Publish: a concurrent lock-free lookup that wins this release /
    // its acquire pair sees a fully-constructed node.
    head.store(n, std::memory_order_release);
}

void
ShaderCacheL2::purge()
{
    // Quiescent by contract: no lookup() may be traversing.  Bump the
    // epoch anyway so any L1 still holding entries self-clears on its
    // next get().
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::atomic<Node *> &head : buckets_) {
        Node *n = head.exchange(nullptr, std::memory_order_relaxed);
        while (n) {
            Node *next = n->next;
            delete n;
            n = next;
        }
    }
}

std::shared_ptr<DecodedShader>
ShaderCacheL1::get(const ShaderCacheL2 &l2, uint32_t va)
{
    uint64_t cur = l2.epoch();
    if (epoch_ != cur) {
        clear();
        epoch_ = cur;
    }
    Entry &e = entries_[slotOf(va)];
    if (e.shader && e.va == va) {
        hits++;
        return e.shader;
    }
    std::shared_ptr<DecodedShader> s = l2.lookup(va);
    if (s) {
        // Re-check the epoch: if an invalidate landed between our
        // epoch read and the L2 lookup, the entry must not be cached
        // under the old stamp (it would survive the next self-clear).
        if (l2.epoch() == cur) {
            e.va = va;
            e.shader = s;
        }
        l2Fills++;
    }
    return s;
}

} // namespace bifsim::gpu
