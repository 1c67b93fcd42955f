// Lint fixture: serial-reach must fire twice.  Member inner_ has a
// type that snapshots, but System's transfer only *mentions* it
// (which satisfies serial-drift) without delegating to its transfer;
// ReachLeaf is reachable from System's member-type graph yet neither
// snapshots nor declares itself stateless.
#ifndef MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_REACH_HH
#define MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_REACH_HH

#include <cstdint>

class ReachInner
{
  public:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.count_);
    }

    std::uint32_t
    count() const
    {
        return count_;
    }

  private:
    // Bumped by the owner; the snapshot carries it.
    std::uint32_t count_ = 0;
};

// A leaf with a value but no word on whether it snapshots: it needs
// a transfer body or a `// mopac: stateless` annotation.

class ReachLeaf // expect serial-reach (closure), line 35
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
        (void)self.inner_; // named, but count_ never reaches ar
        (void)self.leaf_;
        (void)ar;
    }

    std::uint32_t
    total() const
    {
        return inner_.count() +
               static_cast<std::uint32_t>(leaf_.value());
    }

  private:
    ReachInner inner_; // expect serial-reach (delegation), line 64
    ReachLeaf leaf_;
};

#endif // MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_REACH_HH
