#ifndef BIFSIM_COMMON_THREAD_ANNOTATIONS_H
#define BIFSIM_COMMON_THREAD_ANNOTATIONS_H

/**
 * @file
 * Compile-time concurrency contracts (DESIGN.md §5i).
 *
 * Clang Thread Safety Analysis attribute macros plus annotated
 * `sim::Mutex` / `sim::LockGuard` / `sim::UniqueLock` / `sim::CondVar`
 * wrappers.  Under clang with `-Wthread-safety` (CI builds it with
 * `-Werror=thread-safety`), the prose threading contracts that used to
 * live only in doc comments become compiler-enforced:
 *
 *  - every piece of data a lock guards is declared `GUARDED_BY(lock_)`
 *    and any unlocked access fails the build;
 *  - `REQUIRES(lock_)` on a function means "caller must hold lock_";
 *  - `EXCLUDES(lock_)` means "caller must NOT hold lock_" (deadlock
 *    guard for functions that acquire it themselves);
 *  - `ACQUIRED_BEFORE` declares lock ordering, checked under
 *    `-Wthread-safety-beta`.
 *
 * Under GCC (and any compiler without the attributes) every macro
 * expands to nothing and the wrappers compile down to the plain
 * `std::` types with zero overhead, so the annotations cost nothing
 * outside the clang static-analysis build.
 *
 * Repo rule (enforced by `examples/simlint`): no `std::mutex`,
 * `std::condition_variable` or `std::shared_mutex` data member may be
 * declared anywhere in `src/` outside this header — components use the
 * `sim::` wrappers so the analysis sees every lock — and every
 * `sim::Mutex` member must be referenced by at least one annotation
 * (`GUARDED_BY` / `REQUIRES` / `ACQUIRE` / `EXCLUDES` / ...) in its
 * file.  Lock-free structures (the GMMU epoch protocol, per-thread
 * `GpuTlb`) are exempt by design; the why is documented per structure
 * and in §5i.
 */

#include <condition_variable>
#include <cstddef>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define BIFSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BIFSIM_THREAD_ANNOTATION(x)   // no-op outside clang
#endif

#define CAPABILITY(x) BIFSIM_THREAD_ANNOTATION(capability(x))

#define SCOPED_CAPABILITY BIFSIM_THREAD_ANNOTATION(scoped_lockable)

#define GUARDED_BY(x) BIFSIM_THREAD_ANNOTATION(guarded_by(x))

#define PT_GUARDED_BY(x) BIFSIM_THREAD_ANNOTATION(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
    BIFSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
    BIFSIM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
    BIFSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
    BIFSIM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
    BIFSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
    BIFSIM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
    BIFSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
    BIFSIM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
    BIFSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define EXCLUDES(...) BIFSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
    BIFSIM_THREAD_ANNOTATION(assert_capability(x))

#define RETURN_CAPABILITY(x) BIFSIM_THREAD_ANNOTATION(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
    BIFSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace bifsim::sim {

/**
 * Host cache-line size used to isolate per-thread mutable state
 * (DESIGN.md §5f): a structure one worker writes on its execution path
 * is aligned to this, so no other thread's data shares its lines.
 * (Not std::hardware_destructive_interference_size, which GCC warns
 * may change with -mtune and so must not shape a type's layout.)
 */
inline constexpr size_t kCacheLineBytes = 64;

/**
 * An annotated mutex capability.  Drop-in for the `std::mutex` members
 * it replaces; `native()` exposes the underlying `std::mutex` for
 * `sim::CondVar` (never lock it directly — that would hide the
 * acquisition from the analysis).
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { m_.lock(); }
    void unlock() RELEASE() { m_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/** RAII scope holding a sim::Mutex for its whole lifetime
 *  (`std::lock_guard` equivalent). */
class SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &m) ACQUIRE(m) : m_(m) { m_.lock(); }
    ~LockGuard() RELEASE() { m_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &m_;
};

/**
 * Relockable RAII scope (`std::unique_lock` equivalent): supports the
 * unlock-work-relock pattern and condition-variable waits.  The
 * analysis tracks the lock/unlock calls, so guarded accesses between
 * unlock() and lock() are flagged exactly as they should be.
 */
class SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &m) ACQUIRE(m) : ul_(m.native()) {}
    ~UniqueLock() RELEASE() = default;

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void lock() ACQUIRE() { ul_.lock(); }
    void unlock() RELEASE() { ul_.unlock(); }

    std::unique_lock<std::mutex> &native() { return ul_; }

  private:
    std::unique_lock<std::mutex> ul_;
};

/**
 * Condition variable paired with sim::Mutex through sim::UniqueLock.
 *
 * wait() atomically releases and reacquires the lock, so the
 * capability state is unchanged across the call — the analysis needs
 * no annotation here.  Call sites should prefer explicit
 * `while (!cond) cv.wait(l);` loops over predicate lambdas: the
 * condition read then sits in the function the analysis is checking,
 * with the capability visibly held, instead of inside a lambda it
 * treats as an unrelated unlocked function.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    void wait(UniqueLock &l) { cv_.wait(l.native()); }

    template <class Rep, class Period>
    std::cv_status
    wait_for(UniqueLock &l,
             const std::chrono::duration<Rep, Period> &dur)
    {
        return cv_.wait_for(l.native(), dur);
    }

  private:
    std::condition_variable cv_;
};

} // namespace bifsim::sim

#endif // BIFSIM_COMMON_THREAD_ANNOTATIONS_H
