// Lint fixture: clean counterpart of bad_serial_drift.hh.  Every
// serializable member appears in the one transfer body; the
// construction-time reference and the annotated config member are
// exempt, and the virtual pair only forwards to transfer.
#ifndef MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_DRIFT_HH
#define MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_DRIFT_HH

#include <cstdint>

struct Serializer;
struct Deserializer;
struct Backend;
struct Config
{
};

class Widget
{
  public:
    virtual ~Widget() = default;

    virtual void saveState(Serializer &ser) const { transfer(*this, ser); }
    virtual void loadState(Deserializer &des) { transfer(*this, des); }

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.a_);
        ar.u32(self.b_);
    }

  private:
    std::uint32_t a_ = 0;
    std::uint32_t b_ = 0;
    Backend &backend_;        // references are construction-time wiring
    Config cfg_; // mopac-lint: allow(serial-drift)
};

#endif // MOPAC_TESTS_TOOLS_FIXTURES_GOOD_SERIAL_DRIFT_HH
