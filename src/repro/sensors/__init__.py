"""Wi-Fi-powered sensor applications (§5): the battery-free and
battery-recharging temperature sensor and camera, plus the USB charging
hotspot of §8(a)."""
