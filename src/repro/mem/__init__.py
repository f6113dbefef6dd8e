"""DRAM device substrate.

Models banked DRAM channels at burst granularity: per-bank row buffers,
FR-FCFS-lite scheduling, batched write draining with read/write turnaround
penalties, and an optional fixed I/O delay (used for the off-package DDR
main memory). Devices are built from :class:`repro.mem.configs.DramConfig`
presets matching the paper's evaluation platforms.
"""
