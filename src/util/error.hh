/**
 * @file
 * Recoverable error reporting for the simulator.
 *
 * Three tiers (see DESIGN.md §9):
 *   - ipref_panic: internal invariant violations — simulator bugs.
 *     Aborts; never catch it.
 *   - SimError and subclasses: recoverable failures induced by inputs
 *     (corrupt traces, bad configurations) or the environment (I/O).
 *     The batch runner catches these at the run boundary, so one bad
 *     input cannot take down a whole experiment campaign.
 *   - ipref_fatal: CLI-level unrecoverable exits; only appropriate in
 *     main()-adjacent code, never inside the library.
 *
 * Errors flagged `transient()` (EINTR/EAGAIN/ENOSPC-class I/O) are
 * eligible for retry with backoff; everything else fails fast.
 */

#ifndef IPREF_UTIL_ERROR_HH
#define IPREF_UTIL_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/logging.hh"

namespace ipref
{

/** Base class for every recoverable simulator error. */
class SimError : public std::runtime_error
{
  public:
    /** Broad classification, preserved across the run boundary. */
    enum class Kind : std::uint8_t
    {
        Config,      //!< invalid configuration / CLI input
        Trace,       //!< trace file corruption, truncation, bad decode
        Invariant,   //!< recoverable invariant failure in one run
        Io,          //!< filesystem / OS-level failure
        Timeout,     //!< run exceeded its deadline (RunControl)
        Interrupted, //!< run cancelled by SIGINT / batch shutdown
    };

    SimError(Kind kind, const std::string &msg, bool transient = false)
        : std::runtime_error(msg), kind_(kind), transient_(transient)
    {}

    Kind kind() const { return kind_; }

    /** May succeed on retry (I/O hiccup, disk briefly full, ...). */
    bool transient() const { return transient_; }

  private:
    Kind kind_;
    bool transient_;
};

/** Stable lower-case name for a Kind (manifest / JSON reports). */
const char *errorKindName(SimError::Kind kind);

/** Parse errorKindName() output back (unknown -> Invariant). */
SimError::Kind parseErrorKind(const std::string &name);

/** Is @p err (an errno value) worth retrying? */
bool isTransientErrno(int err);

/** The user asked for an unsupportable configuration. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &msg)
        : SimError(Kind::Config, msg)
    {}
};

/**
 * Trace-file corruption, truncation or I/O failure, carrying enough
 * context (byte offset, record index, errno) to locate the damage.
 */
class TraceError : public SimError
{
  public:
    /** Where in the file the error was detected. */
    struct Context
    {
        std::string path;
        std::uint64_t byteOffset = 0;
        std::uint64_t recordIndex = 0;
        int sysErrno = 0; //!< 0 when not an OS-level failure
    };

    explicit TraceError(const std::string &msg)
        : SimError(Kind::Trace, msg)
    {}

    TraceError(const std::string &msg, Context ctx,
               bool transient = false)
        : SimError(Kind::Trace, decorate(msg, ctx), transient),
          ctx_(std::move(ctx))
    {}

    const Context &context() const { return ctx_; }
    std::uint64_t byteOffset() const { return ctx_.byteOffset; }
    std::uint64_t recordIndex() const { return ctx_.recordIndex; }
    int sysErrno() const { return ctx_.sysErrno; }

  private:
    static std::string decorate(const std::string &msg,
                                const Context &ctx);

    Context ctx_;
};

/**
 * A per-run invariant failed in a way that poisons only that run
 * (e.g. a stalled simulation loop). Distinct from ipref_panic, which
 * flags process-wide simulator bugs and aborts.
 */
class InvariantError : public SimError
{
  public:
    explicit InvariantError(const std::string &msg)
        : SimError(Kind::Invariant, msg)
    {}
};

/**
 * Minimal Expected<T>: a value or the SimError that prevented it.
 * Used where failure is an answer, not an exception (manifest loads,
 * salvage paths).
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : data_(std::move(value)) {} // NOLINT(implicit)
    Expected(SimError error) : data_(std::move(error)) {} // NOLINT

    bool ok() const { return data_.index() == 0; }
    explicit operator bool() const { return ok(); }

    T &value() { return std::get<0>(data_); }
    const T &value() const { return std::get<0>(data_); }

    const SimError &error() const { return std::get<1>(data_); }

    T
    valueOr(T def) const
    {
        return ok() ? std::get<0>(data_) : std::move(def);
    }

  private:
    std::variant<T, SimError> data_;
};

/** Throw @p ExType with a printf-formatted message. */
#define ipref_raise(ExType, ...)                                              \
    throw ExType(::ipref::detail::formatMessage(__VA_ARGS__))

} // namespace ipref

#endif // IPREF_UTIL_ERROR_HH
