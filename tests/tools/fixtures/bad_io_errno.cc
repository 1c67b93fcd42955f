// Lint fixture: io-errno must fire on raw errno reads and on
// write()/fsync() calls whose result is discarded.  This file
// carries no file-wide allow for the check, so every site
// below is a finding.
#include <cerrno>
#include <unistd.h>

int
lastError()
{
    return errno; // expect io-errno on line 11
}

void
flushBad(int fd, const char *buf, unsigned long len)
{
    write(fd, buf, len); // expect io-errno on line 17
    ::fsync(fd);         // expect io-errno on line 18
}
