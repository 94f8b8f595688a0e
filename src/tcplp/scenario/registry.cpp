#include "tcplp/scenario/registry.hpp"

#include <stdexcept>

#include "tcplp/common/assert.hpp"

namespace tcplp::scenario {

Registry& Registry::instance() {
    static Registry registry;
    return registry;
}

void Registry::add(ScenarioDef def) {
    TCPLP_ASSERT(!def.name.empty());
    TCPLP_ASSERT(find(def.name) == nullptr && "duplicate scenario name");
    try {
        validate(def.base);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("scenario '" + def.name + "' base spec: " + e.what());
    }
    defs_.push_back(std::move(def));
}

const ScenarioDef* Registry::find(const std::string& name) const {
    for (const ScenarioDef& d : defs_)
        if (d.name == name) return &d;
    return nullptr;
}

Registration::Registration(ScenarioDef def) {
    Registry::instance().add(std::move(def));
}

}  // namespace tcplp::scenario
