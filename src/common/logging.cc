#include "common/logging.hh"

#include <cstdio>

namespace mealib {

namespace {
bool g_verbose = false;
} // namespace

void
setVerbose(bool verbose)
{
    g_verbose = verbose;
}

void
informStr(const std::string &msg)
{
    if (g_verbose)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warnStr(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace mealib
