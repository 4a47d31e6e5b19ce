"""Regression: the columnar quota sweep ranks uneven per-group VM rows.

A fault sweep splits killed service VMs into segments and drops
abandoned ones, so groups stop carrying the same number of ``pvm_*``
rows.  The quota sweep must then still rank each group's rows in shard
order (``V + sum of earlier groups' rows + position``); ranking by
``row % (P // G)`` scrambles same-start rows and changes who is admitted
when the quota is tight.  These hand-built tables make the quota tight
so the exact replay runs, and check it against the object sweep.
"""

import numpy as np

from repro.cloud.quota import Quota
from repro.columnar import admission
from repro.columnar.planner import ActivityTables
from repro.columnar.schema import ColumnSchema
from repro.core.cohort import (
    COURSE,
    CohortConfig,
    ProjectStorageActivity,
    ProjectVmActivity,
    ShardPlan,
    VmLabActivity,
    _sweep_kvm_quota,
)

#: Three instances in all: the lab VM and group 0's VM leave room for one.
TIGHT = Quota(instances=3, cores=64, ram_gib=256, floating_ips=10, volumes=10)

LAB_VM = VmLabActivity(
    lab_id="lab2", user="student000", start=10.0, duration=500.0,
    flavor="m1.small", vm_count=1,
)
#: (group, flavor, start, hours, with_fip); group 1 has three rows, two
#: of them arriving at the same instant.
SERVICE_VMS = (
    (0, "m1.medium", 100.0, 1000.0, True),
    (1, "m1.large", 200.0, 300.0, True),
    (1, "m1.small", 200.0, 300.0, False),
    (1, "m1.tiny", 250.0, 100.0, False),
)
STORAGE = ((0, 90.0, 1500.0, 50, 1.0), (1, 95.0, 1500.0, 60, 2.0))


def hand_built_tables(schema):
    def col(values, dtype):
        return np.asarray(values, dtype=dtype)

    def empty(dtype):
        return np.empty(0, dtype=dtype)

    vms = list(zip(*SERVICE_VMS))
    storage = list(zip(*STORAGE))
    return ActivityTables(
        vm_student=col([0], np.int32),
        vm_lab=col([schema.lab_codes[LAB_VM.lab_id]], np.int16),
        vm_start=col([LAB_VM.start], np.float64),
        vm_duration=col([LAB_VM.duration], np.float64),
        vm_flavor=col([schema.rtype_codes[LAB_VM.flavor]], np.int16),
        vm_count=col([LAB_VM.vm_count], np.int16),
        vm_block_gb=col([0], np.int32),
        vm_object_gb=col([0.0], np.float64),
        slot_student=empty(np.int32), slot_lab=empty(np.int16), slot_node=empty(np.int16),
        slot_start=empty(np.float64), slot_hours=empty(np.float64),
        slot_site=empty(np.int8), slot_edge=empty(bool),
        pvm_group=col(vms[0], np.int32),
        pvm_flavor=col([schema.rtype_codes[f] for f in vms[1]], np.int16),
        pvm_start=col(vms[2], np.float64),
        pvm_hours=col(vms[3], np.float64),
        pvm_with_fip=col(vms[4], bool),
        pl_group=empty(np.int32), pl_node=empty(np.int16), pl_start=empty(np.float64),
        pl_hours=empty(np.float64), pl_site=empty(np.int8), pl_edge=empty(bool),
        ps_group=col(storage[0], np.int32),
        ps_start=col(storage[1], np.float64),
        ps_hours=col(storage[2], np.float64),
        ps_block_gb=col(storage[3], np.int32),
        ps_object_gb=col(storage[4], np.float64),
    )


def hand_built_shards():
    groups = []
    for g in (0, 1):
        user = f"group{g:02d}"
        groups.append(
            ShardPlan(
                shard_id=user,
                spawn_key=(2, g),
                project_vms=tuple(
                    ProjectVmActivity(user=user, flavor=f, start=s, hours=h, with_fip=fip)
                    for grp, f, s, h, fip in SERVICE_VMS
                    if grp == g
                ),
                project_storage=tuple(
                    ProjectStorageActivity(
                        user=user, start=s, block_gb=b, object_gb=o, hours=h
                    )
                    for grp, s, h, b, o in STORAGE
                    if grp == g
                ),
            )
        )
    student = ShardPlan(shard_id="student000", spawn_key=(1, 0), vm_labs=(LAB_VM,))
    return [student, *groups]


def test_uneven_groups_admit_in_object_order(monkeypatch):
    monkeypatch.setattr(admission, "quota_for", lambda course: TIGHT)
    config = CohortConfig()
    schema = ColumnSchema.for_course(COURSE)
    info: dict[str, bool] = {}
    admitted = admission.sweep_kvm_quota(
        hand_built_tables(schema), course=COURSE, config=config, info=info, schema=schema
    )
    assert info["quota_fast_path"] is False  # the exact replay decided

    shards = _sweep_kvm_quota(hand_built_shards(), TIGHT, COURSE.semester_hours, config)
    vms = [vm for shard in shards for vm in shard.project_vms]
    np.testing.assert_array_equal(admitted.pvm_start, [vm.start for vm in vms])
    np.testing.assert_array_equal(
        admitted.pvm_flavor, [schema.rtype_codes[vm.flavor] for vm in vms]
    )
    np.testing.assert_array_equal(
        admitted.ps_start, [st.start for shard in shards for st in shard.project_storage]
    )
    np.testing.assert_array_equal(
        admitted.vm_start, [vm.start for shard in shards for vm in shard.vm_labs]
    )
    # the first-ranked of the two same-start rows (m1.large) won the slot
    assert admitted.pvm_start[1] == 200.0 and admitted.pvm_start[2] > 200.0
