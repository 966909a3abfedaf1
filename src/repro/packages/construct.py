"""Top-level package construction (paper section 3.3).

``construct_packages`` turns one hot region into its packages (one per
root function); ``construct_all`` processes every region of a program,
orders the packages that share root functions, and applies the links —
the full step-3 pipeline ahead of the post-link rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import PackageError
from repro.regions.region import HotRegion

from .inlining import build_package
from .linking import apply_links
from .ordering import OrderedGroup, check_ordering_mode, order_packages
from .package import Package
from .pruning import PrunedFunction, prune_region
from .roots import RootInfo, inlinable_functions, select_roots


@dataclass
class RegionPackages:
    """Packages built from one region, plus the analysis that shaped them."""

    region: HotRegion
    pruned: Dict[str, PrunedFunction]
    roots: List[RootInfo]
    packages: List[Package] = field(default_factory=list)


def construct_packages(region: HotRegion) -> RegionPackages:
    """Build one package per root function of the region.

    Structural failures inside pruning / root selection / inlining are
    re-raised as a typed :class:`~repro.errors.PackageError` naming the
    phase, so the quarantine loop can isolate it.
    """
    try:
        return _construct_packages(region)
    except PackageError:
        raise
    except (KeyError, IndexError, AttributeError, ValueError) as exc:
        raise PackageError(
            f"package construction failed for phase "
            f"#{region.record.index} ({type(exc).__name__}: {exc})",
            phase=region.record.index,
        ) from exc


def _construct_packages(region: HotRegion) -> RegionPackages:
    pruned = prune_region(region)
    # Drop functions whose pruned form is empty (can happen when a
    # record names a function whose hot blocks all failed inference).
    pruned = {name: t for name, t in pruned.items() if t.order}
    roots = select_roots(region, pruned)
    inlinable = frozenset(inlinable_functions(pruned))

    result = RegionPackages(region=region, pruned=pruned, roots=roots)
    for root_info in roots:
        if root_info.function not in pruned:
            continue
        name = f"pkg_p{region.record.index}_{root_info.function}"
        package = build_package(
            region, pruned, inlinable, name=name, root=root_info.function
        )
        if package.blocks:
            result.packages.append(package)
    return result


@dataclass
class PackagedProgramPlan:
    """Everything the post-link rewriter needs: all packages, grouped,
    ordered, and linked."""

    per_region: List[RegionPackages]
    groups: List[OrderedGroup]

    @property
    def packages(self) -> List[Package]:
        ordered: List[Package] = []
        for group in self.groups:
            ordered.extend(group.packages)
        return ordered


def assemble_plan(
    per_region: Sequence[RegionPackages],
    link: bool = True,
    ordering: str = "best",
) -> PackagedProgramPlan:
    """Order and (optionally) link already-constructed region packages.

    Split out of :func:`construct_all` so the
    :class:`~repro.postlink.vacuum.VacuumPacker` quarantine loop can
    construct each region's packages in isolation, then assemble only
    the survivors.
    """
    check_ordering_mode(ordering)
    all_packages = [p for rp in per_region for p in rp.packages]
    groups = order_packages(all_packages, ordering)
    if link:
        for group in groups:
            apply_links(group.packages, group.links)
    else:
        for group in groups:
            group.links = []
    return PackagedProgramPlan(per_region=list(per_region), groups=groups)


def construct_all(
    regions: Sequence[HotRegion], link: bool = True, ordering: str = "best"
) -> PackagedProgramPlan:
    """Construct, order, and (optionally) link packages for all regions.

    ``link=False`` reproduces the Figure 8 / Figure 10 "w/o linking"
    configurations: packages are still built and ordered (orderings
    determine launch-point precedence) but no exit is retargeted.
    ``ordering`` is forwarded to the rank search (ablation hook).
    """
    check_ordering_mode(ordering)
    per_region = [construct_packages(region) for region in regions]
    return assemble_plan(per_region, link=link, ordering=ordering)
