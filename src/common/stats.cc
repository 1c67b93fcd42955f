/**
 * @file
 * Histogram and StatRegistry implementation.
 */

#include "stats.hh"

#include <algorithm>

#include "format.hh"
#include "log.hh"
#include "serialize.hh"

namespace mopac
{

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucket_width_(bucket_width), buckets_(num_buckets + 1, 0)
{
    MOPAC_ASSERT(bucket_width > 0);
    MOPAC_ASSERT(num_buckets > 0);
}

void
Histogram::add(std::uint64_t sample)
{
    const std::size_t idx = std::min<std::size_t>(
        sample / bucket_width_, buckets_.size() - 1);
    ++buckets_[idx];
    if (count_ == 0) {
        min_ = max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
}

double
Histogram::mean() const
{
    if (count_ == 0) {
        return 0.0;
    }
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
Histogram::quantile(double p) const
{
    if (count_ == 0) {
        return 0;
    }
    p = std::clamp(p, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target) {
            return (i + 1) * bucket_width_ - 1;
        }
    }
    return max_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = sum_ = min_ = max_ = 0;
}

void
StatRegistry::addScalar(const std::string &name, const std::uint64_t *value)
{
    MOPAC_ASSERT(value != nullptr);
    entries_.push_back({name, value});
}

void
StatRegistry::addReal(const std::string &name, const double *value)
{
    MOPAC_ASSERT(value != nullptr);
    entries_.push_back({name, value});
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &entry : entries_) {
        if (std::holds_alternative<const std::uint64_t *>(entry.value)) {
            os << mopac::format("{:<48} {}\n", entry.name,
                              *std::get<const std::uint64_t *>(entry.value));
        } else {
            os << mopac::format("{:<48} {:.6g}\n", entry.name,
                              *std::get<const double *>(entry.value));
        }
    }
}

const StatRegistry::Entry *
StatRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name) {
            return &entry;
        }
    }
    return nullptr;
}

std::uint64_t
StatRegistry::scalar(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr ||
        !std::holds_alternative<const std::uint64_t *>(entry->value)) {
        panic("no scalar stat named '{}'", name);
    }
    return *std::get<const std::uint64_t *>(entry->value);
}

double
StatRegistry::real(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr ||
        !std::holds_alternative<const double *>(entry->value)) {
        panic("no real stat named '{}'", name);
    }
    return *std::get<const double *>(entry->value);
}

bool
StatRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

StatSnapshot::StatSnapshot(const StatRegistry &registry)
{
    entries_.reserve(registry.size());
    registry.forEach([this](const std::string &name,
                            std::uint64_t const *u, double const *d) {
        if (u != nullptr) {
            entries_.push_back({name, *u});
        } else {
            entries_.push_back({name, *d});
        }
    });
}

void
StatSnapshot::merge(const StatSnapshot &other)
{
    for (const Entry &e : other.entries_) {
        Entry *mine = nullptr;
        for (Entry &candidate : entries_) {
            if (candidate.name == e.name) {
                mine = &candidate;
                break;
            }
        }
        if (mine == nullptr) {
            entries_.push_back(e);
            continue;
        }
        if (std::holds_alternative<std::uint64_t>(mine->value) &&
            std::holds_alternative<std::uint64_t>(e.value)) {
            mine->value = std::get<std::uint64_t>(mine->value) +
                          std::get<std::uint64_t>(e.value);
        } else if (std::holds_alternative<double>(mine->value) &&
                   std::holds_alternative<double>(e.value)) {
            mine->value =
                std::get<double>(mine->value) + std::get<double>(e.value);
        } else {
            panic("stat '{}' merged with mismatched type", e.name);
        }
    }
}

void
StatSnapshot::dump(std::ostream &os) const
{
    for (const Entry &entry : entries_) {
        if (std::holds_alternative<std::uint64_t>(entry.value)) {
            os << mopac::format("{:<48} {}\n", entry.name,
                                std::get<std::uint64_t>(entry.value));
        } else {
            os << mopac::format("{:<48} {:.6g}\n", entry.name,
                                std::get<double>(entry.value));
        }
    }
}

const StatSnapshot::Entry *
StatSnapshot::find(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name) {
            return &entry;
        }
    }
    return nullptr;
}

std::uint64_t
StatSnapshot::scalar(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr ||
        !std::holds_alternative<std::uint64_t>(entry->value)) {
        panic("no scalar stat named '{}' in snapshot", name);
    }
    return std::get<std::uint64_t>(entry->value);
}

double
StatSnapshot::real(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr ||
        !std::holds_alternative<double>(entry->value)) {
        panic("no real stat named '{}' in snapshot", name);
    }
    return std::get<double>(entry->value);
}

bool
StatSnapshot::has(const std::string &name) const
{
    return find(name) != nullptr;
}

bool
StatSnapshot::operator==(const StatSnapshot &other) const
{
    return entries_ == other.entries_;
}

template <class Self, class Ar>
void
Histogram::transfer(Self &self, Ar &ar)
{
    const std::size_t live_buckets = self.buckets_.size();
    std::uint64_t width = self.bucket_width_;
    ar.u64(width);
    ar.vecU64(self.buckets_);
    if (Ar::kLoading && (width != self.bucket_width_ ||
                         self.buckets_.size() != live_buckets)) {
        throw SerializeError(
            format("histogram shape mismatch (saved width {} x {} "
                   "buckets, live width {} x {})",
                   width, self.buckets_.size(), self.bucket_width_,
                   live_buckets));
    }
    ar.u64(self.count_);
    ar.u64(self.sum_);
    ar.u64(self.min_);
    ar.u64(self.max_);
}

MOPAC_TRANSFER_INSTANTIATE(Histogram);

template <class Self, class Ar>
void
StatSnapshot::transfer(Self &self, Ar &ar)
{
    std::uint64_t n = self.entries_.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) {
        if (n > (1ull << 32)) {
            throw SerializeError(format("implausible stat count {}", n));
        }
        self.entries_.assign(n, Entry{});
    }
    for (auto &entry : self.entries_) {
        ar.str(entry.name);
        auto kind = static_cast<std::uint8_t>(entry.value.index());
        ar.u8(kind);
        if (kind == 0) {
            std::uint64_t v = Ar::kLoading ? 0 : std::get<0>(entry.value);
            ar.u64(v);
            if constexpr (Ar::kLoading) {
                entry.value = v;
            }
        } else if (kind == 1) {
            double v = Ar::kLoading ? 0.0 : std::get<1>(entry.value);
            ar.f64(v);
            if constexpr (Ar::kLoading) {
                entry.value = v;
            }
        } else {
            throw SerializeError(format("bad stat entry kind {}", kind));
        }
    }
}

MOPAC_TRANSFER_INSTANTIATE(StatSnapshot);

} // namespace mopac
