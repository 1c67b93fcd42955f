// Lint fixture: clean counterpart of bad_io_errno.cc.  Syscall
// results are checked and failures surface as return values (real
// code throws SerializeError); a member named write and an
// explicit (void) discard are fine -- only statement-position free /
// global-scope calls drop a result silently.
#include <unistd.h>

struct Frame
{
    void write(const char *bytes, unsigned long len);
};

bool
flushGood(int fd, const char *buf, unsigned long len, Frame &frame)
{
    const long rc = write(fd, buf, len);
    if (rc < 0 || fsync(fd) != 0) {
        return false;
    }
    frame.write(buf, len);
    (void)::write(fd, buf, len);
    return true;
}
