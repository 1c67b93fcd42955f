// Lint fixture: serial-drift must fire once, on the class.  Gadget
// writes its snapshot as separate saveState and loadState bodies, so
// the field order lives in two places that can drift apart.
#ifndef MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_HALVES_HH
#define MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_HALVES_HH

#include <cstdint>

struct Serializer;
struct Deserializer;

class Gadget // expect serial-drift, line 12
{
  public:
    void
    saveState(Serializer &ser) const
    {
        ser.putU32(a_);
        ser.putU32(b_);
    }

    void
    loadState(Deserializer &des)
    {
        a_ = des.getU32();
        b_ = des.getU32();
    }

  private:
    std::uint32_t a_ = 0;
    std::uint32_t b_ = 0;
};

#endif // MOPAC_TESTS_TOOLS_FIXTURES_BAD_SERIAL_HALVES_HH
