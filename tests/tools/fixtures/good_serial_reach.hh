// Lint fixture: clean counterpart of bad_serial_reach.hh.  inner_ is
// delegated to directly, pool_ through the range-for idiom, engine_
// through its virtual pair, and the stateless leaf says so with the
// annotation.
#ifndef MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_REACH_HH
#define MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_REACH_HH

#include <array>
#include <cstdint>
#include <memory>

struct Serializer;
struct Deserializer;

class CalmInner
{
  public:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.count_);
    }

  private:
    std::uint32_t count_ = 0;
};

/** Polymorphic member: snapshots through its virtual pair. */
class CalmEngine
{
  public:
    virtual ~CalmEngine() = default;
    virtual void saveState(Serializer &ser) const = 0;
    virtual void loadState(Deserializer &des) = 0;
};

/** Pure geometry: fixed at construction, nothing to snapshot. */
// mopac: stateless
class CalmLeaf
{
  public:
    int value() const { return value_; }

  private:
    int value_ = 0;
};

class System
{
  public:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        CalmInner::transfer(self.inner_, ar);
        for (auto &p : self.pool_) {
            CalmInner::transfer(p, ar);
        }
        transferVirtual(*self.engine_, ar);
        (void)self.leaf_;
    }

  private:
    CalmInner inner_;
    std::array<CalmInner, 2> pool_;
    std::unique_ptr<CalmEngine> engine_;
    CalmLeaf leaf_;
};

#endif // MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_REACH_HH
