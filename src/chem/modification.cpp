#include "chem/modification.hpp"

#include <charconv>

#include "chem/amino_acid.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace lbe::chem {

ModificationSet::ModificationSet() {
  for (char c = 'A'; c <= 'Z'; ++c) {
    fixed_residue_mass_[static_cast<std::size_t>(c - 'A')] = residue_mass(c);
  }
}

ModId ModificationSet::add(Modification mod) {
  if (mod.name.empty()) {
    throw ConfigError("modification needs a name");
  }
  if (mod.residues.empty()) {
    throw ConfigError("modification '" + mod.name + "' has no target residues");
  }
  for (const char c : mod.residues) {
    if (!is_residue(c)) {
      throw ConfigError("modification '" + mod.name +
                        "' targets invalid residue '" + std::string(1, c) +
                        "'");
    }
  }
  for (const auto& existing : mods_) {
    if (existing.name == mod.name) {
      throw ConfigError("duplicate modification name: " + mod.name);
    }
  }
  if (mods_.size() >= kNoMod) {
    throw ConfigError("too many modifications (max 254)");
  }
  if (mod.fixed) {
    // Accumulated in modification order, as a loop over mods_ would sum.
    for (char c = 'A'; c <= 'Z'; ++c) {
      if (mod.applies_to(c)) {
        const auto i = static_cast<std::size_t>(c - 'A');
        fixed_delta_[i] += mod.delta;
        fixed_residue_mass_[i] = residue_mass(c) + fixed_delta_[i];
      }
    }
  }
  mods_.push_back(std::move(mod));
  return static_cast<ModId>(mods_.size() - 1);
}

std::vector<ModId> ModificationSet::variable_mods_for(char c) const {
  std::vector<ModId> out;
  for (std::size_t i = 0; i < mods_.size(); ++i) {
    if (!mods_[i].fixed && mods_[i].applies_to(c)) {
      out.push_back(static_cast<ModId>(i));
    }
  }
  return out;
}

ModificationSet ModificationSet::parse(std::string_view spec) {
  ModificationSet set;
  if (str::trim(spec).empty()) return set;
  for (const auto entry : str::split(spec, ';')) {
    const auto trimmed = str::trim(entry);
    if (trimmed.empty()) continue;
    const auto parts = str::split(trimmed, ':');
    if (parts.size() != 3 && parts.size() != 4) {
      throw ConfigError("bad modification spec (want name:delta:residues): " +
                        std::string(trimmed));
    }
    Modification mod;
    mod.name = std::string(str::trim(parts[0]));
    double delta = 0.0;
    if (!str::parse_double(parts[1], delta)) {
      throw ConfigError("bad modification delta: " + std::string(parts[1]));
    }
    mod.delta = delta;
    mod.residues = str::to_upper(str::trim(parts[2]));
    if (parts.size() == 4) {
      const auto flag = str::to_upper(str::trim(parts[3]));
      if (flag == "FIXED") {
        mod.fixed = true;
      } else if (flag == "VARIABLE") {
        mod.fixed = false;
      } else {
        throw ConfigError("bad modification flag (want fixed|variable): " +
                          std::string(parts[3]));
      }
    }
    set.add(std::move(mod));
  }
  return set;
}

ModificationSet ModificationSet::paper_default() {
  ModificationSet set;
  set.add({"Deamidation", 0.98401585, "NQ", false});
  set.add({"GlyGly", 114.04292744, "KC", false});
  set.add({"Oxidation", 15.99491462, "M", false});
  return set;
}

}  // namespace lbe::chem
