// Strong identifier types.
//
// Every entity in the system (node, file, block, job, task) is addressed by
// a distinct integer ID type so that, e.g., a JobId can never be passed where
// a BlockId is expected. IDs are value types, hashable, and printable.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>

namespace ignem {

namespace detail {

/// CRTP-free strong integer wrapper; `Tag` makes each instantiation unique.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::int64_t v) : value_(v) {}

  static constexpr StrongId invalid() { return StrongId(-1); }

  constexpr std::int64_t value() const { return value_; }
  constexpr bool valid() const { return value_ >= 0; }

  constexpr auto operator<=>(const StrongId&) const = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.value_;
  }

 private:
  std::int64_t value_ = -1;
};

}  // namespace detail

using NodeId = detail::StrongId<struct NodeTag>;
using FileId = detail::StrongId<struct FileTag>;
using BlockId = detail::StrongId<struct BlockTag>;
using JobId = detail::StrongId<struct JobTag>;
using QueryId = detail::StrongId<struct QueryTag>;

}  // namespace ignem

namespace std {
template <typename Tag>
struct hash<ignem::detail::StrongId<Tag>> {
  size_t operator()(ignem::detail::StrongId<Tag> id) const noexcept {
    return std::hash<std::int64_t>()(id.value());
  }
};
}  // namespace std
