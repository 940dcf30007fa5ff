// Versioned engine-state snapshots (serving layer).
//
// A Snapshot is a set of named sections, each an opaque byte payload
// written through an explicit little-endian codec — endian-stable by
// construction (integers byte by byte, doubles as IEEE-754 bit patterns),
// never a memory dump. The engine, demand model, protocol, oracle, patrol
// fleet and run loop each own one section, looked up by name.
//
// One field list per class: each stateful class names its serialized
// members once, in a visitor run by the writer to save and by the reader
// to restore (see "field archives"), so save and restore cannot drift.
//
// Versioning contract: kVersion is bumped on ANY layout change, and
// from_bytes rejects a mismatched version loudly (SnapshotError). Every
// section opens with a structural-validation block (seeds, network shape,
// config echoes) so a snapshot only restores into a world built from the
// same inputs.
//
// Input contract: restore treats the bytes as untrusted and refuses
// malformed ones with SnapshotError — never an abort, an unbounded
// allocation or a world that later crashes.
//
// Determinism contract: save() is legal only between steps; restore-then-
// continue reproduces the uninterrupted run's event stream bit for bit at
// any thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "roadnet/road_network.hpp"
#include "traffic/vehicle.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ivc::serve {

class SimWorld;

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class Snapshot {
 public:
  static constexpr std::uint32_t kMagic = 0x53435649;    // "IVCS", little-endian
  static constexpr std::uint32_t kEndianMark = 0x01020304;
  // Bump on ANY section-layout change; from_bytes rejects mismatches.
  // v2: the engine section no longer stores per-vehicle IDM parameters.
  static constexpr std::uint32_t kVersion = 2;

  // Creates (or resets) the named section and returns its payload buffer.
  std::vector<std::uint8_t>& add_section(std::string_view name);
  [[nodiscard]] const std::vector<std::uint8_t>& section(std::string_view name) const;
  [[nodiscard]] bool has_section(std::string_view name) const;
  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

  // Wire format: header {magic, version, endian mark} + section table.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  [[nodiscard]] static Snapshot from_bytes(const std::vector<std::uint8_t>& bytes);

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

// ---- field archives -----------------------------------------------------------
//
// A stateful class lists its serialized members once, in a visitor
//
//   template <class Ar, class Self> static void io(Ar& ar, Self& self);
//
// run with a ByteWriter when saving (Self deduces as const T) and with a
// ByteReader when restoring (Self deduces as T). The operations are a
// small closed set:
//   ar(x)               a leaf: an arithmetic scalar (little-endian at its
//                       own width, bool as one byte, double as its IEEE-754
//                       bits), SimTime, VehicleId, EdgeId, NodeId, Rng
//                       state, an enum below its kCount, a pair of leaves,
//                       or a u32-length-prefixed string / byte blob;
//   ar.maybe_unset(id)  an EdgeId/NodeId that may hold the invalid sentinel;
//   ar.expect(v, what)  structural validation: the writer writes v, the
//                       reader refuses a differing value;
//   ar.seq(c, each)     a u64-length-prefixed vector or deque;
//                       `each(ar, element)` defaults to ar(element);
//   ar.length(n, min)   the checked count a sequence is built on.
// Every reader check throws SnapshotError: a count is checked against the
// bytes left before anything is allocated, an id against the network
// being restored into.

template <class T>
concept ByteString = std::same_as<T, std::string> || std::same_as<T, std::vector<std::uint8_t>>;

// Default element visitor of ar.seq: the element is a leaf.
inline constexpr auto leaf_field = [](auto& ar, auto& value) { ar(value); };

// Append-only little-endian encoder over a caller-owned byte vector.
class ByteWriter {
 public:
  static constexpr bool kLoading = false;
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      (*this)(std::bit_cast<std::uint64_t>(v));  // doubles only: a float fails to compile
    } else {
      const std::size_t at = out_.size();
      out_.resize(at + sizeof(T));
      std::uint8_t* le = out_.data() + at;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        le[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
      }
    }
  }
  template <ByteString B>
  void operator()(const B& bytes) {
    (*this)(static_cast<std::uint32_t>(bytes.size()));
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  template <class A, class B>
  void operator()(const std::pair<A, B>& p) {
    (*this)(p.first);
    (*this)(p.second);
  }
  void operator()(util::SimTime t) { (*this)(t.millis()); }
  void operator()(traffic::VehicleId id) { (*this)(id.value()); }
  template <class Tag>
  void operator()(util::StrongId<Tag> id) {
    (*this)(id.value());
  }
  void operator()(const util::Rng& rng) {
    const util::Rng::State st = rng.state();
    for (const std::uint64_t word : st.s) (*this)(word);
    (*this)(st.spare_normal);
    (*this)(st.has_spare_normal);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E e) {
    (*this)(static_cast<std::uint8_t>(e));
  }

  template <class Tag>
  void maybe_unset(util::StrongId<Tag> id) {
    (*this)(id);
  }
  template <class T>
  void expect(const T& value, const char* /*what*/) {
    (*this)(value);
  }
  void length(std::size_t n, std::size_t /*min_element_bytes*/) {
    (*this)(static_cast<std::uint64_t>(n));
  }
  template <class C, class F = decltype(leaf_field)>
  void seq(const C& c, F each = leaf_field) {
    length(c.size(), 0);
    for (const auto& x : c) each(*this, x);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

// Sequential little-endian decoder; every overrun and every malformed
// value throws SnapshotError instead of reading garbage. The per-field
// reads are forced inline: a restore runs them ~60 times per vehicle, and
// left to itself GCC emits them as calls inside the large visitors.
class ByteReader {
 public:
  static constexpr bool kLoading = true;
  // `net` is the network ids are checked against; a reader without one
  // refuses every id.
  explicit ByteReader(const std::vector<std::uint8_t>& in,
                      const roadnet::RoadNetwork* net = nullptr)
      : in_(in),
        segments_(net != nullptr ? net->num_segments() : 0),
        intersections_(net != nullptr ? net->num_intersections() : 0) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  [[gnu::always_inline]] void operator()(T& v) {
    need(sizeof(T));
    const std::uint8_t* le = in_.data() + pos_;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) bits |= std::uint64_t{le[i]} << (8 * i);
    pos_ += sizeof(T);
    if constexpr (std::is_same_v<T, bool>) {
      if (bits > 1) refuse("snapshot holds a boolean byte other than 0 or 1");
      v = bits != 0;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::bit_cast<T>(bits);
    } else {
      v = static_cast<T>(bits);
    }
  }
  template <ByteString B>
  void operator()(B& bytes) {
    std::uint32_t n = 0;
    (*this)(n);
    need(n);
    const auto first = in_.begin() + static_cast<std::ptrdiff_t>(pos_);
    bytes.assign(first, first + n);
    pos_ += n;
  }
  template <class A, class B>
  void operator()(std::pair<A, B>& p) {
    (*this)(p.first);
    (*this)(p.second);
  }
  [[gnu::always_inline]] void operator()(util::SimTime& t) {
    t = util::SimTime::from_millis(read<std::int64_t>());
  }
  [[gnu::always_inline]] void operator()(traffic::VehicleId& id) {
    const auto v = read<std::uint64_t>();
    id = traffic::VehicleId{static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(v >> 32)};
  }
  template <class Tag>
  [[gnu::always_inline]] void operator()(util::StrongId<Tag>& id) {
    id = network_id<util::StrongId<Tag>>(false);
  }
  void operator()(util::Rng& rng) {
    util::Rng::State st;
    for (std::uint64_t& word : st.s) (*this)(word);
    (*this)(st.spare_normal);
    (*this)(st.has_spare_normal);
    rng.set_state(st);
  }
  template <class E>
    requires std::is_enum_v<E>
  [[gnu::always_inline]] void operator()(E& e) {
    const auto b = read<std::uint8_t>();
    if (b >= static_cast<std::uint8_t>(E::kCount)) {
      refuse("snapshot holds an enum value out of range");
    }
    e = static_cast<E>(b);
  }

  template <class Id>
  [[gnu::always_inline]] void maybe_unset(Id& id) {
    id = network_id<Id>(true);
  }
  template <class T>
  void expect(const T& want, const char* what) {
    if (!(read<T>() == want)) {
      throw SnapshotError(std::string("snapshot incompatible with this world: ") + what);
    }
  }
  // Reads a count of elements that each encode to at least
  // `min_element_bytes`, refusing one the remaining bytes cannot hold.
  void length(std::size_t& n, std::size_t min_element_bytes) {
    const auto count = read<std::uint64_t>();
    std::uint64_t bytes = 0;
    if (__builtin_mul_overflow(count, std::max<std::size_t>(min_element_bytes, 1), &bytes) ||
        bytes > remaining()) {
      refuse("snapshot length prefix exceeds the bytes left");
    }
    n = static_cast<std::size_t>(count);
  }
  template <class C, class F = decltype(leaf_field)>
  void seq(C& c, F each = leaf_field) {
    std::size_t n = 0;
    length(n, blank_bytes<typename C::value_type>(each));
    c.clear();
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::size_t i = 0; i < n; ++i) each(*this, c.emplace_back());
  }

  template <class T>
  [[gnu::always_inline]] T read() {
    T v{};
    (*this)(v);
    return v;
  }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  void expect_end(const char* what) const {
    if (remaining() != 0) throw SnapshotError(std::string(what) + ": trailing bytes in section");
  }

 private:
  // Out of line, so the inlined reads stay small.
  [[noreturn]] static void refuse(const char* what);

  // The encoded size of a default element — empty sequences, no optional
  // parts — bounds what any element costs. Measured once per visitor.
  template <class Element, class F>
  static std::size_t blank_bytes(const F& each) {
    static const std::size_t bytes = [&each] {
      std::vector<std::uint8_t> out;
      ByteWriter w(out);
      const Element blank{};
      each(w, blank);
      return out.size();
    }();
    return bytes;
  }

  template <class Id>
  [[gnu::always_inline]] Id network_id(bool may_be_unset) {
    const Id id{read<std::uint32_t>()};
    if (may_be_unset && !id.valid()) return id;
    if (id.value() >= (std::is_same_v<Id, roadnet::EdgeId> ? segments_ : intersections_)) {
      refuse("snapshot holds a network id out of range");
    }
    return id;
  }

  [[gnu::always_inline]] void need(std::size_t n) const {
    if (n > remaining()) refuse("snapshot truncated");
  }

  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
  std::size_t segments_;       // EdgeId bound of the network restored into
  std::size_t intersections_;  // NodeId bound
};

// File header shared by snapshots and traces: {magic, version, endian
// mark}. Saving writes it; restoring refuses a foreign magic, a version
// skew or a corrupt endian mark. `kind` names the file in the messages.
template <class Ar>
void file_header(Ar& ar, std::uint32_t magic, std::uint32_t version, const char* kind) {
  std::uint32_t got_magic = magic;
  std::uint32_t got_version = version;
  std::uint32_t got_endian = Snapshot::kEndianMark;
  ar(got_magic);
  ar(got_version);
  ar(got_endian);
  if (got_magic != magic) throw SnapshotError(std::string("not an IVC ") + kind + " (bad magic)");
  if (got_version != version) {
    throw SnapshotError(std::string(kind) + " format version " + std::to_string(got_version) +
                        " is not the supported version " + std::to_string(version) +
                        "; re-record the " + kind + " with this build");
  }
  if (got_endian != Snapshot::kEndianMark) {
    throw SnapshotError(std::string(kind) + " endian mark corrupt");
  }
}

// Serialization backdoor: the one type the stateful components befriend.
// Keeps every component's data members private while concentrating their
// field visitors (Fields<T>::io) and the restore checks in
// src/serve/snapshot.cpp.
struct SnapshotAccess {
  // One section per component: engine, demand, protocol, oracle, patrol
  // (only for a world with a fleet) and world. Legal only between steps.
  static void save(const SimWorld& world, Snapshot& snap);
  static void restore(SimWorld& world, const Snapshot& snap);

 private:
  // Fields<T>::io(ar, self) visits T's serialized members; one
  // specialization per class, all in snapshot.cpp.
  template <class T>
  struct Fields;
  template <class Ar, class Self>
  static void io(Ar& ar, Self& self) {
    Fields<std::remove_const_t<Self>>::io(ar, self);
  }
  // Element visitor of ar.seq for composite elements.
  static constexpr auto nested = [](auto& ar, auto& element) { SnapshotAccess::io(ar, element); };
};

}  // namespace ivc::serve
