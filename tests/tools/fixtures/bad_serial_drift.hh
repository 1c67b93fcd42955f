// Lint fixture: serial-drift must fire twice.  Widget describes its
// snapshot once, in the transfer body that both the Serializer and
// the Deserializer run; member b_ was added to the class but never to
// that body, and neither was c_.  Round trips cannot catch this:
// both directions skip the same fields.
#ifndef MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_DRIFT_HH
#define MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_DRIFT_HH

#include <cstdint>

class Widget
{
  public:
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.a_);
    }

    std::uint32_t
    sum() const
    {
        return a_ + b_ + c_;
    }

  private:
    // The snapshot must round-trip every field below; transfer above
    // only names the first.
    std::uint32_t a_ = 0;
    std::uint32_t b_ = 0; // expect serial-drift, line 31
    std::uint32_t c_ = 0; // expect serial-drift, line 32
};

#endif // MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_DRIFT_HH
