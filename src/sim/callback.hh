/**
 * @file
 * A small-buffer-optimized, move-only callable for held engine events
 * (Engine::Callback: message arrivals, PDES mailboxes, the engine's
 * overflow list) and protocol completion paths. Scheduled closures do
 * not pass through it: the engine stores them as size-exact records.
 *
 * std::function's inline buffer (16 bytes on libstdc++) is smaller than
 * almost every closure the protocol engines schedule — a typical data-path
 * continuation captures `this`, a MemAccess, a couple of ids and two
 * completion callbacks, ~180 bytes — so the seed engine paid one heap
 * allocation + free per event. SmallCallback widens the inline buffer so
 * all of those captures are stored in place; only outsized or
 * throwing-move callables fall back to the heap. Dispatch is a single
 * ops-table pointer (invoke / relocate / destroy), generated per closure
 * type.
 *
 * The signature is a template parameter (`SmallCallback<N, R(Args...)>`,
 * defaulting to `void()`), so the same machinery backs the engine's
 * events, the protocols' `void(Version)` load completions, and the
 * per-hop arrival continuations of the transport layer.
 */

#ifndef HMG_SIM_CALLBACK_HH
#define HMG_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hmg
{

/**
 * Inline capacity shared by the protocol completion callbacks
 * (core/protocol.hh's LoadDoneCb/DoneCb and GpmNode's parked
 * continuations, the network's injection waiters). Sized for the
 * completions the SM front end and the protocol engines hand each
 * other; the SM's own captures take at most 24 bytes (`this`, a 32-bit
 * warp index, a line or a Version, a flag). Anything larger spills to
 * the heap gracefully.
 */
constexpr std::size_t kCompletionCbBytes = 56;

template <std::size_t N, typename Sig = void()>
class SmallCallback;

/** Move-only `R(Args...)` callable with `N` bytes of inline storage. */
template <std::size_t N, typename R, typename... Args>
class SmallCallback<N, R(Args...)>
{
  public:
    SmallCallback() = default;
    SmallCallback(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= N &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (buf_) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    SmallCallback(SmallCallback &&other) noexcept { moveFrom(other); }

    SmallCallback &
    operator=(SmallCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallCallback(const SmallCallback &) = delete;
    SmallCallback &operator=(const SmallCallback &) = delete;

    ~SmallCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable. Undefined if empty (like std::function
     *  minus the throw). */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /**
     * Invoke the stored callable and destroy it in place, leaving *this
     * empty. One indirect call instead of move-out + invoke + destroy.
     * Undefined if empty.
     */
    R
    consume(Args... args)
    {
        const Ops *o = ops_;
        ops_ = nullptr;
        return o->invoke_destroy(buf_, std::forward<Args>(args)...);
    }

    static constexpr std::size_t inlineCapacity() { return N; }

    /** True when the stored callable lives in the inline buffer. */
    bool isInline() const { return ops_ && ops_->inline_storage; }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Invoke, then destroy — fused for the consume() fast path. */
        R (*invoke_destroy)(void *, Args...);
        /** Move-construct into `dst` from `src`, then destroy `src`. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
        bool inline_storage;
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *p, Args... args) -> R {
            Fn *f = std::launder(reinterpret_cast<Fn *>(p));
            if constexpr (std::is_void_v<R>) {
                (*f)(std::forward<Args>(args)...);
                f->~Fn();
            } else {
                R r = (*f)(std::forward<Args>(args)...);
                f->~Fn();
                return r;
            }
        },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
        true,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p, Args... args) -> R {
            return (**reinterpret_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        [](void *p, Args... args) -> R {
            Fn *f = *reinterpret_cast<Fn **>(p);
            if constexpr (std::is_void_v<R>) {
                (*f)(std::forward<Args>(args)...);
                delete f;
            } else {
                R r = (*f)(std::forward<Args>(args)...);
                delete f;
                return r;
            }
        },
        [](void *dst, void *src) {
            *reinterpret_cast<Fn **>(dst) = *reinterpret_cast<Fn **>(src);
        },
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
        false,
    };

    void
    moveFrom(SmallCallback &other) noexcept
    {
        if (other.ops_) {
            ops_ = other.ops_;
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[N];
};

} // namespace hmg

#endif // HMG_SIM_CALLBACK_HH
