#include "apps/app.hh"

#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "em3d/em3d.hh"

namespace t3dsim::apps
{

std::vector<App>
suite()
{
    return {em3d::app({}), bsort::app({}), qcd::app({})};
}

} // namespace t3dsim::apps
