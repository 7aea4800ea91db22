"""Host substrate: memory, CPU, kernel profiles, NVMe driver, VMs."""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_POLICY",
    "DMA_MODELS",
    "DOORBELL_MODES",
    "POLICY_PRESETS",
    "SubmissionPolicy",
    "parse_policy",
    "resolve_policy",
    "BlockTarget",
    "CompletionInfo",
    "Core",
    "HostCPU",
    "DriverStats",
    "NVMeControllerTarget",
    "NVMeDriver",
    "IRQ_WINDOW_BASE",
    "Host",
    "DEFAULT_KERNEL",
    "KERNEL_PROFILES",
    "KernelProfile",
    "PAGE_SIZE",
    "HostMemory",
    "VirtualMachine",
    "VMProfile",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "block": ("BlockTarget", "CompletionInfo"),
    "cpu": ("Core", "HostCPU"),
    "driver": ("DriverStats", "NVMeControllerTarget", "NVMeDriver"),
    "environment": ("IRQ_WINDOW_BASE", "Host"),
    "kernel_profile": ("DEFAULT_KERNEL", "KERNEL_PROFILES", "KernelProfile"),
    "memory": ("PAGE_SIZE", "HostMemory"),
    "policy": (
        "DEFAULT_POLICY", "DMA_MODELS", "DOORBELL_MODES", "POLICY_PRESETS",
        "SubmissionPolicy", "parse_policy", "resolve_policy",
    ),
    "vm": ("VirtualMachine", "VMProfile"),
})
