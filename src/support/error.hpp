// Error handling primitives for ndpgen.
//
// The framework distinguishes user-facing compile errors (bad format
// specifications, unsatisfiable mappings) from internal invariant
// violations. Both are reported through ndpgen::Error, an exception
// carrying a structured kind, so callers can react programmatically
// while still getting a readable message.
//
// Paths that must not throw across discrete-event-simulation callbacks
// (timed flash reads, degraded scans) return a Result<T> instead: an
// expected-style value-or-Status carrier with the same ErrorKind
// taxonomy, convertible back into an Error at a safe boundary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ndpgen {

/// Broad classification of failures surfaced by the framework.
enum class ErrorKind : std::uint8_t {
  kLex,          ///< Tokenization failure in a format specification.
  kParse,        ///< Syntax error in a format specification.
  kSemantic,     ///< Contextual-analysis error (unknown type, bad mapping...).
  kGeneration,   ///< Accelerator generation failure.
  kSimulation,   ///< Hardware/platform simulation error.
  kStorage,      ///< KV-store / flash-storage error.
  kInvalidArg,   ///< API misuse detected at a public boundary.
  kInternal,     ///< Invariant violation inside the framework.
  kBusy,         ///< Admission rejected: bounded queue at capacity.
  kDeviceUnavailable,  ///< No live replica can serve the request.
  kIntegrity,    ///< Unrepairable replica divergence (every copy is bad).
  kPlanInvalid,  ///< Malformed or unsatisfiable logical query plan.
};

/// Returns a stable lowercase name for an ErrorKind ("parse", "storage"...).
[[nodiscard]] constexpr std::string_view to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kLex: return "lex";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kSemantic: return "semantic";
    case ErrorKind::kGeneration: return "generation";
    case ErrorKind::kSimulation: return "simulation";
    case ErrorKind::kStorage: return "storage";
    case ErrorKind::kInvalidArg: return "invalid-argument";
    case ErrorKind::kInternal: return "internal";
    case ErrorKind::kBusy: return "busy";
    case ErrorKind::kDeviceUnavailable: return "device-unavailable";
    case ErrorKind::kIntegrity: return "integrity";
    case ErrorKind::kPlanInvalid: return "plan-invalid";
  }
  return "unknown";
}

/// Exception type thrown by all ndpgen subsystems. Diagnostics that point
/// at source text (spec or plan parsing) additionally carry a 1-based
/// line/column; 0/0 means "no location".
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind),
        message_(message) {}

  Error(ErrorKind kind, const std::string& message, std::uint32_t line,
        std::uint32_t column)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message +
                           " at " + std::to_string(line) + ":" +
                           std::to_string(column)),
        kind_(kind),
        message_(message),
        line_(line),
        column_(column) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }
  /// Message without the "kind: " prefix what() prepends.
  [[nodiscard]] const std::string& message() const noexcept { return message_; }
  [[nodiscard]] std::uint32_t line() const noexcept { return line_; }
  [[nodiscard]] std::uint32_t column() const noexcept { return column_; }
  [[nodiscard]] bool has_location() const noexcept { return line_ != 0; }

 private:
  ErrorKind kind_;
  std::string message_;
  std::uint32_t line_ = 0;
  std::uint32_t column_ = 0;
};

/// Throws Error{kind, message} — used by the NDPGEN_CHECK family below.
[[noreturn]] inline void raise(ErrorKind kind, const std::string& message) {
  throw Error(kind, message);
}

/// Located variant for source-text diagnostics (line/column are 1-based).
[[noreturn]] inline void raise_at(ErrorKind kind, const std::string& message,
                                  std::uint32_t line, std::uint32_t column) {
  throw Error(kind, message, line, column);
}

/// Process exit code for a failure of the given kind (see README "Exit
/// codes"): distinct, stable values so scripts can react to the failure
/// class without parsing stderr. 0 = success, 1 = unclassified, 2 = usage.
[[nodiscard]] constexpr int exit_code(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kLex: return 10;
    case ErrorKind::kParse: return 11;
    case ErrorKind::kSemantic: return 12;
    case ErrorKind::kGeneration: return 13;
    case ErrorKind::kSimulation: return 14;
    case ErrorKind::kStorage: return 15;
    case ErrorKind::kInvalidArg: return 16;
    case ErrorKind::kInternal: return 17;
    case ErrorKind::kBusy: return 18;
    case ErrorKind::kDeviceUnavailable: return 19;
    case ErrorKind::kIntegrity: return 20;
    case ErrorKind::kPlanInvalid: return 21;
  }
  return 1;
}

/// Non-throwing failure description (the error arm of Result<T>). Carries
/// the same optional 1-based source location as Error so parser failures
/// can surface a pointing caret without re-parsing the message text.
struct Status {
  ErrorKind kind = ErrorKind::kInternal;
  std::string message;
  std::uint32_t line = 0;    ///< 1-based; 0 = no location.
  std::uint32_t column = 0;  ///< 1-based; 0 = no location.

  [[nodiscard]] bool has_location() const noexcept { return line != 0; }

  [[nodiscard]] std::string to_string() const {
    std::string out(ndpgen::to_string(kind));
    out += ": " + message;
    if (has_location()) {
      out += " at " + std::to_string(line) + ":" + std::to_string(column);
    }
    return out;
  }

  /// Captures an Error (kind, message, location) into a Status.
  [[nodiscard]] static Status from(const Error& error) {
    return Status{error.kind(), error.message(), error.line(), error.column()};
  }
};

/// Minimal expected-style carrier: either a T or a Status. Used on paths
/// that run under DES callbacks, where throwing would unwind through the
/// event queue.
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Result(Status status) : state_(std::move(status)) {}     // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Result failure(ErrorKind kind, std::string message) {
    return Result(Status{kind, std::move(message)});
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] T& value() & { return std::get<T>(state_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(state_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(state_)); }

  [[nodiscard]] const Status& status() const { return std::get<Status>(state_); }

  /// Rethrows at a safe (non-DES) boundary; returns the value otherwise.
  T& value_or_raise() & {
    if (!ok()) {
      const Status& s = status();
      if (s.has_location()) raise_at(s.kind, s.message, s.line, s.column);
      raise(s.kind, s.message);
    }
    return value();
  }

 private:
  std::variant<T, Status> state_;
};

}  // namespace ndpgen

/// Checks an API precondition; throws kInvalidArg on failure.
#define NDPGEN_CHECK_ARG(cond, msg)                                    \
  do {                                                                 \
    if (!(cond)) ::ndpgen::raise(::ndpgen::ErrorKind::kInvalidArg,     \
                                 std::string(msg) + " [" #cond "]");   \
  } while (false)

/// Checks an internal invariant; throws kInternal on failure.
#define NDPGEN_CHECK(cond, msg)                                        \
  do {                                                                 \
    if (!(cond)) ::ndpgen::raise(::ndpgen::ErrorKind::kInternal,       \
                                 std::string(msg) + " [" #cond "]");   \
  } while (false)
