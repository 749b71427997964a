#include "shell/annex.hh"

#include "sim/logging.hh"

namespace t3dsim::shell
{

AnnexFile::AnnexFile(PeId local_pe)
    : _localPe(local_pe)
{
    for (auto &entry : _entries)
        entry.pe = local_pe;
    _programmed[0] = true; // entry 0 is always live (local).
}

bool
AnnexFile::isProgrammed(unsigned idx) const
{
    T3D_FATAL_IF(idx >= _entries.size(), "annex index out of range: ", idx);
    return _programmed[idx];
}

void
AnnexFile::set(unsigned idx, const AnnexEntry &entry)
{
    T3D_FATAL_IF(idx >= _entries.size(), "annex index out of range: ", idx);
    T3D_FATAL_IF(idx == 0 && entry.pe != _localPe,
                 "annex entry 0 is hardwired to the local processor");
    _entries[idx] = entry;
    _programmed[idx] = true;
}

const AnnexEntry &
AnnexFile::get(unsigned idx) const
{
    T3D_FATAL_IF(idx >= _entries.size(), "annex index out of range: ", idx);
    return _entries[idx];
}

bool
AnnexFile::hasSynonyms() const
{
    for (unsigned i = 0; i < _entries.size(); ++i) {
        if (!_programmed[i])
            continue;
        for (unsigned j = i + 1; j < _entries.size(); ++j) {
            if (_programmed[j] && _entries[i].pe == _entries[j].pe)
                return true;
        }
    }
    return false;
}

} // namespace t3dsim::shell
