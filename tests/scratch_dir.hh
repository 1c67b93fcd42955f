/**
 * @file
 * Per-test scratch directories.  Every test that touches the file
 * system works inside its own directory, made by mkdtemp under
 * ::testing::TempDir() and removed with its contents when the test's
 * ScratchDir goes out of scope.  Two tests therefore never share a
 * path: not the /threads and /processes variants of one parameterised
 * test that `ctest -j` runs at the same time, and not the same test
 * run by a second build's ctest on the same host.
 */

#ifndef MOPAC_TESTS_SCRATCH_DIR_HH
#define MOPAC_TESTS_SCRATCH_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace mopac::test
{

/** A fresh directory private to one test; removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        std::string templ = ::testing::TempDir() + "mopac_XXXXXX";
        if (::mkdtemp(templ.data()) == nullptr) {
            throw std::runtime_error("mkdtemp failed under " +
                                     ::testing::TempDir());
        }
        root_ = templ;
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** Path of @p name inside this directory (not created). */
    std::string path(const std::string &name) const
    {
        return root_ + "/" + name;
    }

  private:
    std::string root_;
};

} // namespace mopac::test

#endif // MOPAC_TESTS_SCRATCH_DIR_HH
