// Lint fixture: clean counterpart of bad_serve_timeout.cc.  All
// potentially-blocking work goes through the deadline-bounded,
// EINTR-safe wrapper layer (serve/io in the real tree); a member
// named like a syscall (frame.write below) is fine -- only free /
// global-scope call forms are the raw POSIX surface.
namespace mopac::serve
{
void readExact(int fd, void *buf, unsigned long len, double timeout);
void writeAll(int fd, const void *buf, unsigned long len);
std::vector<unsigned long> waitAnyReadable(const std::vector<int> &fds,
                                           double timeout_sec);
struct ChildStatus
{
    bool exited = false;
};
ChildStatus reapChild(int pid);
void sleepFor(double seconds);
} // namespace mopac::serve

struct Frame
{
    void write(const char *bytes, unsigned long len);
};

void
drainGood(int fd, char *buf, unsigned long len, Frame &frame)
{
    if (!mopac::serve::waitAnyReadable({fd}, 0.5).empty()) {
        mopac::serve::readExact(fd, buf, len, 5.0);
    }
    frame.write(buf, len);
    mopac::serve::writeAll(fd, buf, len);
    mopac::serve::sleepFor(0.01);
    (void)mopac::serve::reapChild(7);
}
